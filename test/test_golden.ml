(* Golden cross-build digests.

   The differential suites compare two runs of the same build, so a
   change that shifts every run alike — a different PRNG split order, a
   different core registration order, a reordered event — passes them
   all. This suite pins three small rigs, shaped like the benchmark's
   workloads, to digests committed in this file: the delivery sequence
   (pid, simulated time and bytes, in delivery order), the exact latency
   mean and p99, the drop taxonomy, the ordered per-core health view
   and the remaining health counters. A refactor of the dataplane that
   claims to change no simulated event must leave every digest as it
   is; a change that moves an event on purpose updates the constants
   and says why. *)

open Nfp_packet
open Nfp_core
open Golden
module Sys = Nfp_infra.System
module H = Nfp_sim.Harness

let instances kinds =
  let table = Hashtbl.create 8 in
  List.iter
    (fun (name, kind) ->
      match Nfp_nf.Registry.instantiate kind ~name with
      | Some nf -> Hashtbl.replace table name nf
      | None -> Alcotest.failf "no implementation for %s" kind)
    kinds;
  Hashtbl.find table

let chain_plan kinds =
  let profile_of n = Nfp_nf.Registry.profile_of (List.assoc n kinds) in
  match Tables.plan ~profile_of (Graph.seq (List.map (fun (n, _) -> Graph.nf n) kinds)) with
  | Ok p -> p
  | Error e -> Alcotest.failf "plan: %s" e

let pktgen ?(flows = 256) size =
  Nfp_traffic.Pktgen.packet
    (Nfp_traffic.Pktgen.create
       { Nfp_traffic.Pktgen.default with flows; sizes = size; seed = 0x601dL })

(* ------------------------------------------------------------------ *)
(* Rig 1: the fig7 chain of five Forwarders, 64 B frames               *)
(* ------------------------------------------------------------------ *)

let fwd5 () =
  let kinds = List.init 5 (fun i -> (Printf.sprintf "fwd%d" i, "Forwarder")) in
  let plan = chain_plan kinds in
  let config = { Sys.default_config with seed = 11L } in
  observe
    ~make:(fun engine ~output ->
      Sys.make ~config ~plan ~nfs:(instances kinds) engine ~output)
    ~gen:(pktgen (Nfp_traffic.Size_dist.fixed 64))
    ~arrivals:(H.Uniform 10.0) ~packets:3000

(* ------------------------------------------------------------------ *)
(* Rig 2: four tenants of fw -> (mon | lb), replicas = 2               *)
(* ------------------------------------------------------------------ *)

let tenants = 4

let quickstart_policy =
  "NF(fw, Firewall)\n\
   NF(mon, Monitor)\n\
   NF(lb, LoadBalancer)\n\
   Order(fw, before, mon)\n\
   Order(mon, before, lb)\n"

let quickstart_kinds = [ ("fw", "Firewall"); ("mon", "Monitor"); ("lb", "LoadBalancer") ]

let tenant_dip t host = Int32.of_int ((10 lsl 24) lor (t lsl 8) lor host)

(* 512 flows visited in a scrambled order; flow [fid] belongs to tenant
   [fid mod tenants]. Sources sit clear of the firewall ACL's deny
   bands. *)
let tenant_packet payloads i =
  let fid = i * 7919 mod 512 in
  let t = fid mod tenants in
  let flow =
    Flow.make
      ~sip:(Int32.of_int ((172 lsl 24) lor (16 lsl 16) lor fid))
      ~dip:(tenant_dip t (1 + (fid / tenants)))
      ~sport:(1024 + fid) ~dport:80 ~proto:6
  in
  Packet.create ~flow ~payload:(Packet.payload (payloads i)) ()

(* Two mergers (so the merger agent steers), sharded mon/lb replicas, a
   crash on one mon replica under Bypass recovery, and 1% loss on every
   link under reliable channels: every send site of the slot router and
   every channel family is on the path. *)
let tenants_par () =
  let plan =
    match Compiler.compile_text quickstart_policy with
    | Error es -> Alcotest.failf "compile: %s" (String.concat "; " es)
    | Ok o -> ( match Tables.of_output o with Ok p -> p | Error e -> Alcotest.failf "%s" e)
  in
  let config =
    {
      Sys.default_config with
      cost = Nfp_sim.Cost.classified;
      seed = 12L;
      mergers = 2;
      replicas = 2;
    }
  in
  let fault =
    {
      Sys.default_fault_config with
      plan = Nfp_sim.Fault.plan [ Nfp_sim.Fault.crash ~at_ns:300_000.0 "mid2:mon@1" ];
      recovery_of = (fun name -> if name = "mon" then Sys.Bypass else Sys.Restart);
    }
  in
  let links =
    {
      Sys.default_links_config with
      link_plan =
        Nfp_sim.Fault.link_plan ~seed:13L [ Nfp_sim.Fault.loss ~probability:0.01 "*" ];
    }
  in
  observe
    ~make:(fun engine ~output ->
      let graphs =
        List.init tenants (fun t ->
            ( Flow_match.make ~dip_prefix:(tenant_dip t 0, 24) (),
              plan,
              instances quickstart_kinds ))
      in
      Sys.make_multi ~config ~fault ~links ~graphs engine ~output)
    ~gen:(tenant_packet (pktgen Nfp_traffic.Size_dist.datacenter))
    ~arrivals:(H.Uniform 4.0) ~packets:3000

(* ------------------------------------------------------------------ *)
(* Rig 3: fwd-fwd-IDS with faults, overload, elastic and links armed   *)
(* ------------------------------------------------------------------ *)

let ids_kinds = [ ("fwd0", "Forwarder"); ("fwd1", "Forwarder"); ("ids", "IDS") ]

let armed_ids () =
  let plan = chain_plan ids_kinds in
  let config = { Sys.default_config with seed = 14L; ring_capacity = 1024 } in
  let fault =
    {
      Sys.default_fault_config with
      restart_ns = 50_000.0;
      plan =
        Nfp_sim.Fault.storm ~seed:15L
          ~cores:[ "mid1:fwd0"; "mid1:fwd1"; "mid1:ids"; "mid1:ids@1" ]
          ~mtbf_ns:1_500_000.0 ~horizon_ns:3_000_000.0 ();
    }
  in
  let elastic =
    {
      Sys.default_elastic_config with
      scale_out_occupancy = 0.05;
      scale_in_occupancy = 0.005;
    }
  in
  let links =
    {
      Sys.default_links_config with
      link_plan =
        Nfp_sim.Fault.link_plan ~seed:16L [ Nfp_sim.Fault.loss ~probability:0.01 "*" ];
    }
  in
  let arrivals =
    H.Surge
      (Nfp_sim.Fault.surge ~base_mpps:1.0
         [
           Nfp_sim.Fault.Spike { at_ns = 200_000.0; duration_ns = 300_000.0; factor = 3.0 };
           Nfp_sim.Fault.Spike
             { at_ns = 1_400_000.0; duration_ns = 300_000.0; factor = 3.0 };
         ])
  in
  observe
    ~make:(fun engine ~output ->
      Sys.make ~config ~fault ~overload:Sys.default_overload_config ~elastic ~links ~plan
        ~nfs:(instances ids_kinds) engine ~output)
    ~gen:(pktgen ~flows:1024 (Nfp_traffic.Size_dist.fixed 128))
    ~arrivals ~packets:4000

(* ------------------------------------------------------------------ *)
(* Committed digests                                                   *)
(* ------------------------------------------------------------------ *)

let golden_fwd5 =
  {
    delivery = "3d64258166224cd7ba87c85f1b79fa0c";
    latency = "14182f01ba75823eab7748efb006c13e";
    drops = "790c95a0d3865779d1feba97134f37a7";
    cores = "a28df39013703af5b80417f46a47e413";
    counters = "bc97b376222d955d0327ba6c3e038aec";
  }

let golden_tenants =
  {
    delivery = "81f5a0cd4fefbd8630ad86cb9834c9d9";
    latency = "6ae8ebe0c23777f68130de915dae2596";
    drops = "790c95a0d3865779d1feba97134f37a7";
    cores = "148b54eb33c0983f00ffe836afde09a1";
    counters = "7f4f9c7d10ae867ff1c9938d0b7b388c";
  }

let golden_armed =
  {
    delivery = "b49336ac8fee6916417f85549c52a2dc";
    latency = "578c926d0a38582da6d2c6a2960d0b5c";
    drops = "fd185d88b84fb8eac00d68851e3cd0d5";
    cores = "f1b471a9b055b12410fc5de34c51f4ba";
    counters = "97225ed5cc1618c8b0e7742c64e0ba37";
  }

let case name rig golden exercised =
  Alcotest.test_case name `Quick (fun () ->
      let d, r = rig () in
      exercised r;
      Alcotest.check digests_t "digests" golden d)

let tests =
  [
    case "fwd5 chain matches its committed digests" fwd5 golden_fwd5 (fun r ->
        Alcotest.(check int) "every packet delivered" r.H.offered r.H.completed);
    case "multi-tenant replicas=2 matches its committed digests" tenants_par
      golden_tenants (fun r ->
        let h = r.H.health in
        Alcotest.(check bool) "the crash bypassed a replica" true (h.bypasses >= 1);
        Alcotest.(check bool) "links retransmitted" true (h.links.retransmits > 0));
    case "armed IDS chain matches its committed digests" armed_ids golden_armed
      (fun r ->
        let h = r.H.health in
        Alcotest.(check bool) "crashes landed" true (h.crashes > 0);
        Alcotest.(check bool) "the controller scaled out" true (h.scale_outs > 0);
        Alcotest.(check bool) "links retransmitted" true (h.links.retransmits > 0));
  ]

let () = Alcotest.run "nfp_golden" [ ("golden", tests) ]
