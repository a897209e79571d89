(* Oracles for the dataplane's execution semantics.

   - Golden pins: seven hand-built rigs and a fixed corpus of random
     policies are pinned to digests of their runs. The delivery
     sequence (pid, simulated time, bytes), the latency summary and the
     delivered/ring/NF/unmatched counts were captured from the
     table-walking executor the dataplane was once held to packet for
     packet, and the dataplane reproduced every one of them; the drop
     taxonomy, the per-core health view and the health counters were
     captured from the dataplane itself (the table walker registered no
     cores with the watchdog, so it reported neither cores nor internal
     rejections).
   - Sequential equivalence: on any compilable policy, a full timed run
     delivers exactly the packets, with exactly the bytes, that the
     plan's serial chain produces when fed the same packets in offered
     order (paper §6.4).
   - A fault config with an empty plan leaves the trace byte-identical,
     and the domain-parallel harness is deterministic at any worker
     count. *)

open Nfp_packet
open Nfp_core
module H = Nfp_sim.Harness

let check = Alcotest.check

(* Exact float equality: both runs share every arithmetic expression,
   so even the simulated timestamps must match bitwise. *)
let exact_float = Alcotest.float 0.0

let instances bindings =
  let table = Hashtbl.create 8 in
  List.iter
    (fun (name, kind) ->
      match Nfp_nf.Registry.instantiate kind ~name with
      | Some nf -> Hashtbl.replace table name nf
      | None -> Alcotest.failf "no implementation for %s" kind)
    bindings;
  Hashtbl.find table

let plan_of_output o =
  match Tables.of_output o with Ok p -> p | Error e -> Alcotest.failf "plan: %s" e

let plan_of text =
  match Compiler.compile_text text with
  | Error es -> Alcotest.failf "compile: %s" (String.concat "; " es)
  | Ok o -> plan_of_output o

(* Everything observable about one harness run, outputs included. *)
type trace = {
  outs : (int64 * string) list;  (* delivery order: pid, wire bytes *)
  delivered : int;
  ring_drops : int;
  nf_drops : int;
  unmatched : int;
  duration_ns : float;
  mean_ns : float;
}

let trace ~make ~gen ~arrivals ~packets =
  let outs = ref [] in
  let wrapped engine ~output =
    make engine ~output:(fun ~pid pkt ->
        outs := (pid, Bytes.to_string (Packet.to_bytes pkt)) :: !outs;
        output ~pid pkt)
  in
  let r = H.run ~make:wrapped ~gen ~arrivals ~packets () in
  {
    outs = List.rev !outs;
    delivered = r.delivered;
    ring_drops = r.ring_drops;
    nf_drops = r.nf_drops;
    unmatched = r.unmatched;
    duration_ns = r.duration_ns;
    (* NaN (no latency samples) would defeat both [=] and float checks;
       normalize it to a sentinel so empty-stats runs still compare. *)
    mean_ns =
      (let m = Nfp_algo.Stats.mean r.latency in
       if Float.is_nan m then -1.0 else m);
  }

let check_traces ?(duration = true) a b =
  check Alcotest.int "delivered" a.delivered b.delivered;
  check Alcotest.int "ring drops" a.ring_drops b.ring_drops;
  check Alcotest.int "nf drops" a.nf_drops b.nf_drops;
  check Alcotest.int "unmatched" a.unmatched b.unmatched;
  if duration then check exact_float "duration" a.duration_ns b.duration_ns;
  check exact_float "mean latency" a.mean_ns b.mean_ns;
  check Alcotest.int "output count" (List.length a.outs) (List.length b.outs);
  List.iter2
    (fun (pid_a, bytes_a) (pid_b, bytes_b) ->
      check Alcotest.int64 "output pid" pid_a pid_b;
      check Alcotest.string "output bytes" bytes_a bytes_b)
    a.outs b.outs

let traffic ?(sizes = Nfp_traffic.Size_dist.fixed 128) () =
  let g =
    Nfp_traffic.Pktgen.create
      { Nfp_traffic.Pktgen.default with sizes; flows = 64 }
  in
  Nfp_traffic.Pktgen.packet g

(* ------------------------------------------------------------------ *)
(* Golden pins                                                         *)
(* ------------------------------------------------------------------ *)

(* [reference]: the delivery sequence, the latency summary and the
   delivered/ring/NF/unmatched counts. [ledger]: the full drop
   taxonomy, the per-core health view and the health counters. *)
type pin = { reference : string; ledger : string }

let pp_pin ppf p = Fmt.pf ppf "{ reference = %S; ledger = %S }" p.reference p.ledger
let pin_t = Alcotest.testable pp_pin ( = )

let pin_run ~make ~gen ~arrivals ~packets =
  let (d : Golden.digests), (r : H.result) =
    Golden.observe ~make ~gen ~arrivals ~packets
  in
  let tally = Printf.sprintf "%d %d %d %d" r.delivered r.ring_drops r.nf_drops r.unmatched in
  ( {
      reference = Golden.hex (String.concat " " [ d.delivery; d.latency; tally ]);
      ledger = Golden.hex (String.concat " " [ d.drops; d.cores; d.counters ]);
    },
    r )

let single_make text bindings =
  let plan = plan_of text in
  fun engine ~output -> Nfp_infra.System.make ~plan ~nfs:(instances bindings) engine ~output

let ns_text =
  "NF(vpn, VPN)\nNF(mon, Monitor)\nNF(fw, Firewall)\nNF(lb, LoadBalancer)\n\
   Chain(vpn, mon, fw, lb)"

let ns_bindings =
  [ ("vpn", "VPN"); ("mon", "Monitor"); ("fw", "Firewall"); ("lb", "LoadBalancer") ]

let we_text = "NF(ids, IPS)\nNF(mon, Monitor)\nNF(lb, LoadBalancer)\nChain(ids, mon, lb)"

let we_bindings = [ ("ids", "IPS"); ("mon", "Monitor"); ("lb", "LoadBalancer") ]

let golden_case ?(exercised = ignore) name ~make ?(gen = traffic ()) ~arrivals ~packets
    pin =
  Alcotest.test_case name `Quick (fun () ->
      let got, r = pin_run ~make ~gen ~arrivals ~packets in
      exercised r;
      check pin_t "pin" pin got)

let golden_tests =
  [
    golden_case "north-south chain at moderate load"
      ~make:(single_make ns_text ns_bindings)
      ~arrivals:(H.Uniform 0.5) ~packets:800
      {
        reference = "ae40b9f9923534e27b5e853da30b26d8";
        ledger = "7c1d5659634356b0269dfa80c2bb539a";
      };
    golden_case "west-east graph with packet copies"
      ~make:(single_make we_text we_bindings)
      ~arrivals:(H.Burst (1.0, 32))
      ~packets:800
      {
        reference = "5635926d4ca4f208391e9a4bc8a098c5";
        ledger = "b78559e85ab6141bf848f74a33186719";
      };
    golden_case "drop-merging parallel graph"
      ~make:
        (single_make "NF(mon, Monitor)\nNF(fw, Firewall)\nOrder(mon, before, fw)"
           [ ("mon", "Monitor"); ("fw", "Firewall") ])
      ~arrivals:(H.Uniform 1.0) ~packets:800
      {
        reference = "f07c1a350c6702f7666b1f1c002ade03";
        ledger = "f257fa852d877ed634ef5f99bde5f473";
      };
    golden_case "overload: backpressure and ring drops agree"
      ~exercised:(fun r ->
        check Alcotest.bool "ring drops" true (r.ring_drops > 0);
        check Alcotest.bool "internal rejections" true
          (r.health.drops.internal_rejected > 0))
      ~make:(single_make ns_text ns_bindings)
      ~arrivals:(H.Uniform 20.0) ~packets:2000
      {
        reference = "fbc9c9a8e5b09ed97d0f7a0aa7bf0247";
        ledger = "a67530f100373e55a9d86c516cd03fcb";
      };
    golden_case "large frames (dynamic copy cost) agree"
      ~make:(single_make we_text we_bindings)
      ~gen:(traffic ~sizes:(Nfp_traffic.Size_dist.fixed 1500) ())
      ~arrivals:(H.Uniform 0.4) ~packets:400
      {
        reference = "32d681037e4baa425bdac256d4f445d6";
        ledger = "6fba4f66367be913d037ef4669bdad48";
      };
    golden_case "multiple merger instances agree"
      ~make:(fun engine ~output ->
        Nfp_infra.System.make
          ~config:{ Nfp_infra.System.default_config with mergers = 3 }
          ~plan:(plan_of we_text) ~nfs:(instances we_bindings) engine ~output)
      ~arrivals:(H.Uniform 0.8) ~packets:800
      {
        reference = "c81ed520ae9a7877addea2fb8f727d64";
        ledger = "38ac5db4f4b55e3c3d21c37acb9c8dc0";
      };
    (* Graph 1 takes UDP, graph 2 takes TCP dport 61080; other TCP
       traffic is unmatched and counted apart from drops. *)
    golden_case "multi-graph classifier with unmatched traffic"
      ~exercised:(fun r -> check Alcotest.bool "some packets unmatched" true (r.unmatched > 0))
      ~make:(fun engine ~output ->
        Nfp_infra.System.make_multi
          ~graphs:
            [
              ( Flow_match.make ~proto:17 (),
                plan_of "NF(m1, Monitor)\nPosition(m1, first)",
                instances [ ("m1", "Monitor") ] );
              ( Flow_match.make ~dport_range:(61080, 61080) (),
                plan_of ns_text,
                instances ns_bindings );
            ]
          engine ~output)
      ~arrivals:(H.Uniform 0.5) ~packets:600
      {
        reference = "644f897935720151ffe080d445776957";
        ledger = "207fad55103bf7848833c2cc77c6738a";
      };
  ]

(* ------------------------------------------------------------------ *)
(* Random policies                                                     *)
(* ------------------------------------------------------------------ *)

let kind_pool =
  [| "Monitor"; "Gateway"; "Caching"; "Firewall"; "IDS"; "IPS"; "LoadBalancer";
     "VPN"; "NAT"; "Proxy"; "Compression"; "Forwarder" |]

let random_policy_gen =
  QCheck.Gen.(
    let* n = int_range 2 5 in
    let* kinds = array_size (return n) (int_range 0 (Array.length kind_pool - 1)) in
    let* edge_bits = array_size (return (n * n)) bool in
    return (kinds, edge_bits))

let random_policy_arbitrary =
  QCheck.make
    ~print:(fun (kinds, _) ->
      String.concat "," (Array.to_list (Array.map (fun i -> kind_pool.(i)) kinds)))
    random_policy_gen

let build_policy (kinds, edge_bits) =
  let n = Array.length kinds in
  let name i = Printf.sprintf "n%d" i in
  let bindings = List.init n (fun i -> (name i, kind_pool.(kinds.(i)))) in
  let rules =
    List.concat
      (List.init n (fun i ->
           List.filter_map
             (fun j ->
               if j > i && edge_bits.((i * n) + j) then
                 Some (Nfp_policy.Rule.Order (name i, name j))
               else None)
             (List.init n Fun.id)))
  in
  let rules =
    if rules = [] then Nfp_policy.Rule.of_chain (List.init n name) else rules
  in
  { Nfp_policy.Rule.bindings; rules }

(* The deployable plan of a policy; [None] when the compiler rejects
   it (such policies have no dataplane semantics to check). *)
let compile_policy policy =
  match Compiler.compile policy with
  | Error _ -> None
  | Ok out -> Some (plan_of_output out)

let policy_make (policy : Nfp_policy.Rule.policy) ?config plan engine ~output =
  Nfp_infra.System.make ?config ~plan ~nfs:(instances policy.bindings) engine ~output

(* Kinds and order rules, e.g. "IDS,NAT,Monitor | n0<n1,n0<n2". *)
let describe (policy : Nfp_policy.Rule.policy) =
  String.concat "," (List.map snd policy.bindings)
  ^ " | "
  ^ String.concat ","
      (List.map
         (function
           | Nfp_policy.Rule.Order (a, b) -> a ^ "<" ^ b
           | r -> Fmt.str "%a" Nfp_policy.Rule.pp r)
         policy.rules)

(* A fixed draw of the generator: the compilable policies among the
   first [corpus_draws], in draw order. *)
let corpus_draws = 40

let corpus () =
  QCheck.Gen.generate ~rand:(Random.State.make [| 15 |]) ~n:corpus_draws random_policy_gen
  |> List.filter_map (fun spec ->
         let policy = build_policy spec in
         Option.map (fun plan -> (policy, plan)) (compile_policy policy))

let corpus_run (policy, plan) =
  pin_run ~make:(policy_make policy plan) ~gen:(traffic ()) ~arrivals:(H.Uniform 1.5)
    ~packets:300

let golden_corpus =
  [
    ( "Compression,Gateway,NAT,Proxy | n0<n1,n0<n3,n1<n3,n2<n3",
      { reference = "6f19c80d18d3246b77bdb7815b1f6078"; ledger = "12d6ea81f8aa954b7b59474c16aae5e4" } );
    ( "IDS,Proxy,Gateway,Caching | n0<n1,n1<n2,n1<n3,n2<n3",
      { reference = "3a8ada676137aad60e621af3f697b62d"; ledger = "b2a56ce00613e6d5047d92f714aa8e77" } );
    ( "IPS,IDS,IDS | n0<n1",
      { reference = "65a52f9ecf67ebd421c2885127350ae3"; ledger = "d68048bb77c64eb830851dfad38c1e78" } );
    ( "NAT,LoadBalancer | n0<n1",
      { reference = "5b60a812d05f095b7f33919263859f4c"; ledger = "8046cc78677bef462a22d7c00284e99c" } );
    ( "Proxy,LoadBalancer,Firewall,Compression | n0<n1,n0<n2,n0<n3,n2<n3",
      { reference = "a3caa487713f6608431585626a8b1b03"; ledger = "b38493884b1eb1a7a5562ca5114b3d52" } );
    ( "Gateway,Caching,NAT,Firewall,IDS | n0<n2,n0<n3,n0<n4,n1<n2,n1<n4,n2<n3",
      { reference = "4862bd49279b5b6ff6a794525f771f43"; ledger = "9c6190295dc8b3b55abb9540b440c4be" } );
    ( "VPN,LoadBalancer,Firewall,Compression | n1<n2",
      { reference = "25aaee999c19d1e4145ad109f7602ce2"; ledger = "b38493884b1eb1a7a5562ca5114b3d52" } );
    ( "Compression,IDS,Gateway | n0<n1,n0<n2",
      { reference = "06083635a58bc19479525709e0c54d74"; ledger = "d68048bb77c64eb830851dfad38c1e78" } );
    ( "IPS,Compression | n0<n1",
      { reference = "8452b159c007ef2aab7dcbb06483ca83"; ledger = "8046cc78677bef462a22d7c00284e99c" } );
    ( "Caching,Caching,Monitor | n0<n1,n1<n2",
      { reference = "5529229f7c7b9773c7565eb4bf740a3e"; ledger = "0be296069baa35f99cf11861935ceca4" } );
    ( "VPN,VPN | n0<n1",
      { reference = "d88df345ecd45bce8dfa9317373d16c3"; ledger = "8046cc78677bef462a22d7c00284e99c" } );
    ( "NAT,Firewall,Firewall,IDS | n0<n2,n0<n3,n1<n2,n1<n3,n2<n3",
      { reference = "2fe67ac12762602f62c38ce590f935c3"; ledger = "b38493884b1eb1a7a5562ca5114b3d52" } );
    ( "IDS,NAT | n0<n1",
      { reference = "0d25b10ab8e2561954351d50242f7fcb"; ledger = "0ffe49c794fb87b129ff919f92026c76" } );
    ( "NAT,NAT,Gateway,Forwarder,Caching | n0<n1,n0<n2,n1<n2,n2<n3,n2<n4,n3<n4",
      { reference = "6118ac2bb85da92a389731608f0b2ecb"; ledger = "adbfe9fe3e238acb63515bebf1b7bb1b" } );
    ( "Proxy,Forwarder,Compression,Proxy,Caching | n0<n3,n1<n2,n1<n3,n1<n4,n2<n3,n2<n4",
      { reference = "d51d86b92f31eec9852b4e24f2156a7b"; ledger = "9c6190295dc8b3b55abb9540b440c4be" } );
    ( "Proxy,VPN,Gateway | n0<n1,n0<n2",
      { reference = "9d8504300238975afb0b06ad65400cfa"; ledger = "d68048bb77c64eb830851dfad38c1e78" } );
    ( "IPS,Forwarder,Forwarder | n0<n1",
      { reference = "5d8ed90dd19051b2c7d878f322064221"; ledger = "d68048bb77c64eb830851dfad38c1e78" } );
    ( "Compression,NAT,VPN,IDS | n0<n1,n1<n3",
      { reference = "9e5728dfde1e65729da966fab36bcb99"; ledger = "b38493884b1eb1a7a5562ca5114b3d52" } );
    ( "Firewall,Gateway,Monitor,LoadBalancer,Compression | n0<n1,n0<n3,n1<n4,n2<n4,n3<n4",
      { reference = "f29841fc3c2d2e51aec42f15b0352f63"; ledger = "9c6190295dc8b3b55abb9540b440c4be" } );
    ( "Monitor,Firewall | n0<n1",
      { reference = "f28bdcee51988aa7c542785a551def3d"; ledger = "0ffe49c794fb87b129ff919f92026c76" } );
    ( "Firewall,Monitor,NAT,Forwarder,Forwarder | n0<n2,n2<n3,n2<n4",
      { reference = "acb7374992b04e9bc5c2b9d952ba4867"; ledger = "9c6190295dc8b3b55abb9540b440c4be" } );
    ( "Firewall,VPN,Compression,NAT | n0<n3,n1<n2,n2<n3",
      { reference = "6579e7784ae9789f122fcb03d8aaa4b3"; ledger = "b38493884b1eb1a7a5562ca5114b3d52" } );
    ( "Forwarder,IPS,VPN,Monitor,IPS | n0<n1,n0<n3,n1<n4,n2<n3,n2<n4",
      { reference = "979513b854bdee464d3a928a27a1c5cf"; ledger = "9c6190295dc8b3b55abb9540b440c4be" } );
    ( "IDS,Gateway,Compression,IPS | n0<n1,n1<n2,n2<n3",
      { reference = "4685a7c138e84daed3ed98e4cd62584b"; ledger = "2b30d399b3b9572417574aade831517e" } );
    ( "NAT,Monitor,VPN,Caching,IDS | n0<n1,n1<n2,n1<n3",
      { reference = "557e648c1e064dc5c633fcaf56d591f9"; ledger = "c4bf481853bcde7c64be041d91eaf20f" } );
    ( "IDS,Compression,Forwarder,Firewall | n0<n1,n0<n3,n1<n2",
      { reference = "e1191ac67f4064636abe277f0fe2d8b9"; ledger = "b2a56ce00613e6d5047d92f714aa8e77" } );
    ( "IPS,Forwarder,Firewall,NAT,Monitor | n0<n1,n0<n2,n0<n3,n1<n2,n1<n3,n1<n4,n3<n4",
      { reference = "097dbe14d3654e455c8f1734cf1548ac"; ledger = "16181b652eda2ed54db19a95900803bb" } );
    ( "IPS,IPS,Firewall | n1<n2",
      { reference = "31e160ac683c10c59ae1a1967e1ae9ee"; ledger = "64d9885f9471895bbcc23a56e06de01f" } );
    ( "Compression,Forwarder | n0<n1",
      { reference = "88f7944cd789b788cf3a499068ed96ae"; ledger = "8046cc78677bef462a22d7c00284e99c" } );
    ( "NAT,Forwarder,LoadBalancer,Compression,Firewall | n0<n2,n0<n3,n1<n2,n1<n3,n1<n4",
      { reference = "5bdfcad4b37d7d70afc6c369280dc38a"; ledger = "16181b652eda2ed54db19a95900803bb" } );
    ( "Compression,Monitor,IDS,Forwarder,VPN | n0<n1,n1<n2,n1<n3,n1<n4",
      { reference = "f1d99f15d5c9c13625e0334f5a11825f"; ledger = "9c6190295dc8b3b55abb9540b440c4be" } );
    ( "Caching,VPN,IPS,Proxy | n0<n1,n0<n2,n1<n2,n1<n3,n2<n3",
      { reference = "57d5c2e1901eb2543060cbafc60d3ed6"; ledger = "12d6ea81f8aa954b7b59474c16aae5e4" } );
    ( "IDS,Firewall | n0<n1",
      { reference = "aec76ac161fd5166650510610c5a78cd"; ledger = "0ffe49c794fb87b129ff919f92026c76" } );
    ( "LoadBalancer,Forwarder,Proxy,Forwarder | n0<n1,n1<n3,n2<n3",
      { reference = "d6e4a046154c8c78cb7cbf5b5273d88e"; ledger = "12d6ea81f8aa954b7b59474c16aae5e4" } );
    ( "Caching,LoadBalancer,Proxy,Firewall,LoadBalancer | n0<n2,n0<n3,n1<n3,n2<n3",
      { reference = "8aec9ed024e3da582f6bd47514dc6aa5"; ledger = "16181b652eda2ed54db19a95900803bb" } );
    ( "LoadBalancer,LoadBalancer,IDS | n0<n2,n1<n2",
      { reference = "0e61b6c3271e1268eec3d36cc4183809"; ledger = "64d9885f9471895bbcc23a56e06de01f" } );
    ( "Monitor,Proxy,Compression,NAT | n1<n3",
      { reference = "14ac22ad14d43a687edb0b52ff5f5eea"; ledger = "12d6ea81f8aa954b7b59474c16aae5e4" } );
    ( "NAT,LoadBalancer,VPN | n0<n1,n0<n2,n1<n2",
      { reference = "1ba4042b680841a38055ef4c6db60816"; ledger = "64d9885f9471895bbcc23a56e06de01f" } );
    ( "Forwarder,Forwarder,Monitor | n0<n1,n0<n2,n1<n2",
      { reference = "e526529fdc5fcc7291ac3289eed40b97"; ledger = "0be296069baa35f99cf11861935ceca4" } );
    ( "IDS,Gateway,IPS,Forwarder,Firewall | n0<n1,n0<n2,n0<n3,n1<n2,n1<n3,n1<n4,n2<n3",
      { reference = "9cc352ed46e6190069ea2538dd06f38e"; ledger = "c4bf481853bcde7c64be041d91eaf20f" } );
  ]

let corpus_tests =
  [
    Alcotest.test_case "random policies match their committed digests" `Quick
      (fun () ->
        let corpus = corpus () in
        check
          Alcotest.(list string)
          "corpus policies" (List.map fst golden_corpus)
          (List.map (fun (policy, _) -> describe policy) corpus);
        List.iter2
          (fun entry (desc, pin) -> check pin_t desc pin (fst (corpus_run entry)))
          corpus golden_corpus);
  ]

(* ------------------------------------------------------------------ *)
(* Sequential equivalence under the timed harness                      *)
(* ------------------------------------------------------------------ *)

(* Offered traffic with drops on the path: one packet in four sits in
   the firewall ACL's deny band and one in four carries an IDS
   signature; the rest spread over distinct flows and payload sizes. *)
let mixed_traffic =
  let ip s = Option.get (Flow.ip_of_string s) in
  let flow ?(sip = "10.0.1.1") ?(dport = 61080) ~sport () =
    Flow.make ~sip:(ip sip) ~dip:(ip "10.8.2.10") ~sport ~dport ~proto:6
  in
  let sig0 = List.hd (Nfp_nf.Ids.default_signatures 1) in
  fun i ->
    let payload, flow =
      match i mod 4 with
      | 0 -> ("PAYLOAD-0123", flow ~sport:(10000 + i) ())
      | 1 -> ("PAYLOAD-0123", flow ~sip:"10.0.0.9" ~dport:(i mod 50) ~sport:12000 ())
      | 2 -> ("xx" ^ sig0, flow ~sport:(20000 + i) ())
      | _ -> (String.make (10 + (i mod 400)) 'Q', flow ~dport:(61000 + i) ~sport:12000 ())
    in
    Packet.create ~flow ~payload ()

(* Every packet goes through the full deployment on one engine, with
   rings deep enough that nothing is refused. Each pid must come out
   exactly once with the bytes the serial chain produces — fresh NF
   instances, fed the same packets in offered order — or not at all
   when the serial chain drops it. *)
let sequential_equivalence (policy : Nfp_policy.Rule.policy) plan =
  let packets = 300 in
  let gen = mixed_traffic in
  let offered = Array.make packets None in
  let gen i =
    let p = gen i in
    offered.(i) <- Some (Packet.full_copy p);
    p
  in
  let outs = Array.make packets [] in
  let make engine ~output =
    policy_make policy
      ~config:{ Nfp_infra.System.default_config with ring_capacity = 8192 }
      plan engine
      ~output:(fun ~pid pkt ->
        let i = Int64.to_int pid in
        outs.(i) <- Bytes.to_string (Packet.to_bytes pkt) :: outs.(i);
        output ~pid pkt)
  in
  let r = H.run ~make ~gen ~arrivals:(H.Uniform 1.5) ~packets () in
  if r.ring_drops <> 0 then QCheck.Test.fail_reportf "%d ring drops" r.ring_drops;
  let serial = List.map (instances policy.bindings) plan.Tables.serial_order in
  Array.iteri
    (fun i p ->
      let expected =
        Option.map
          (fun p -> Bytes.to_string (Packet.to_bytes p))
          (Nfp_infra.Reference.run_sequential ~nfs:serial (Option.get p))
      in
      match (expected, outs.(i)) with
      | None, [] -> ()
      | Some e, [ got ] when String.equal e got -> ()
      | None, _ :: _ -> QCheck.Test.fail_reportf "pid %d: delivered, serial chain drops it" i
      | Some _, [] -> QCheck.Test.fail_reportf "pid %d: dropped, serial chain delivers it" i
      | Some _, [ _ ] -> QCheck.Test.fail_reportf "pid %d: bytes differ from the serial chain" i
      | Some _, outs -> QCheck.Test.fail_reportf "pid %d: delivered %d times" i (List.length outs))
    offered;
  true

let property_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:25
         ~name:"timed runs match the serial chain on any policy" random_policy_arbitrary
         (fun spec ->
           let policy = build_policy spec in
           match compile_policy policy with
           | None -> QCheck.assume_fail ()
           | Some plan -> sequential_equivalence policy plan));
  ]

(* ------------------------------------------------------------------ *)
(* Fault machinery disarmed: a system built with a fault config whose  *)
(* plan is empty must produce a byte-identical packet trace to one     *)
(* built without fault machinery at all. The watchdog's idle ticks and *)
(* the disarmed merge timeouts advance the empty tail of the event     *)
(* heap, so only the final clock reading may differ — every delivery,  *)
(* byte, counter and latency sample must match exactly.                *)
(* ------------------------------------------------------------------ *)

(* Generous timeout: it must never fire at test loads, only sit armed. *)
let disarmed_fault =
  { Nfp_infra.System.default_fault_config with merge_timeout_ns = 10_000_000.0 }

let fault_differential ~plan ~bindings ~arrivals ~packets =
  (* Fresh NF instances per run: stateful NFs (VPN sequence numbers,
     monitor counters) must not leak state from one run to the next. *)
  let make ?fault () engine ~output =
    Nfp_infra.System.make ?fault ~plan ~nfs:(instances bindings) engine ~output
  in
  let t mk = trace ~make:mk ~gen:(traffic ()) ~arrivals ~packets in
  check_traces ~duration:false
    (t (make ()))
    (t (make ~fault:disarmed_fault ()))

let fault_differential_tests =
  [
    Alcotest.test_case "disarmed faults: north-south chain identical" `Quick (fun () ->
        fault_differential ~plan:(plan_of ns_text) ~bindings:ns_bindings
          ~arrivals:(H.Uniform 0.5) ~packets:800);
    Alcotest.test_case "disarmed faults: parallel graph with merges identical" `Quick
      (fun () ->
        fault_differential ~plan:(plan_of we_text) ~bindings:we_bindings
          ~arrivals:(H.Burst (1.0, 32))
          ~packets:800);
    Alcotest.test_case "disarmed faults: overload backpressure identical" `Quick
      (fun () ->
        fault_differential ~plan:(plan_of ns_text) ~bindings:ns_bindings
          ~arrivals:(H.Uniform 20.0) ~packets:2000);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:25
         ~name:"disarmed faults identical on any compilable policy"
         random_policy_arbitrary
         (fun spec ->
           let policy = build_policy spec in
           match compile_policy policy with
           | None -> QCheck.assume_fail ()
           | Some plan ->
               let make ?fault () engine ~output =
                 Nfp_infra.System.make ?fault ~plan
                   ~nfs:(instances policy.bindings) engine ~output
               in
               let t mk =
                 trace ~make:mk ~gen:(traffic ()) ~arrivals:(H.Uniform 1.5) ~packets:300
               in
               let a = t (make ()) and b = t (make ~fault:disarmed_fault ()) in
               { a with duration_ns = 0.0 } = { b with duration_ns = 0.0 }));
  ]

(* ------------------------------------------------------------------ *)
(* Domain-parallel harness determinism                                 *)
(* ------------------------------------------------------------------ *)

let bench_make engine ~output =
  Nfp_infra.System.make ~plan:(plan_of ns_text) ~nfs:(instances ns_bindings) engine
    ~output

let determinism_tests =
  [
    Alcotest.test_case "parallel_runs is order-preserving and deterministic" `Quick
      (fun () ->
        let thunks () =
          List.init 6 (fun i () ->
              let r =
                H.run ~make:bench_make ~gen:(traffic ())
                  ~arrivals:(H.Uniform (0.3 +. (0.2 *. float_of_int i)))
                  ~packets:400 ()
              in
              (i, r.delivered, r.ring_drops, Nfp_algo.Stats.mean r.latency))
        in
        let seq = H.parallel_runs ~domains:1 (thunks ()) in
        let par = H.parallel_runs ~domains:4 (thunks ()) in
        check Alcotest.int "length" (List.length seq) (List.length par);
        List.iter2
          (fun (i1, d1, rd1, m1) (i2, d2, rd2, m2) ->
            check Alcotest.int "order" i1 i2;
            check Alcotest.int "delivered" d1 d2;
            check Alcotest.int "ring drops" rd1 rd2;
            check exact_float "mean" m1 m2)
          seq par);
    Alcotest.test_case "speculative bisection matches sequential search" `Quick
      (fun () ->
        let search domains =
          H.max_lossless_mpps ~make:bench_make ~gen:(traffic ())
            ~packets:2000 ~hi:14.88 ~iterations:6 ~domains ()
        in
        let s1 = search 1 in
        check exact_float "3 domains" s1 (search 3);
        check exact_float "8 domains" s1 (search 8));
    Alcotest.test_case "nested pools degrade to sequential, same results" `Quick
      (fun () ->
        (* A thunk that itself calls parallel_runs must not spawn a
           nested pool; results stay identical either way. *)
        let inner () =
          H.parallel_runs
            (List.init 3 (fun i () -> i * i))
        in
        let outer =
          H.parallel_runs ~domains:2
            (List.init 2 (fun _ () -> inner ()))
        in
        List.iter
          (fun squares -> check Alcotest.(list int) "squares" [ 0; 1; 4 ] squares)
          outer);
  ]

let () =
  Alcotest.run "nfp_fastpath"
    [
      (* The seven rigs keep the group they had while they compared two
         executors; they now compare one against pinned digests. *)
      ("differential", golden_tests);
      ("golden", corpus_tests);
      ("property", property_tests);
      ("fault-differential", fault_differential_tests);
      ("determinism", determinism_tests);
    ]
