(* The benchmark's three workloads.

   Each is an open loop driven by one process: [generate] builds the
   i-th offered packet from the seed, [arrivals] spaces the injections,
   and the simulator runs in a single domain. [compile] is the
   policy/graph half of set-up; {!deploy} is the other half (NF
   instantiation and [System.make_multi], which includes
   [Classifier.create]). *)

open Nfp_core
module Sys = Nfp_infra.System
module H = Nfp_sim.Harness
module Packet = Nfp_packet.Packet
module Flow_match = Nfp_packet.Flow_match

type graph = {
  rule : Flow_match.t;  (** the graph's Classification Table entry *)
  plan : Tables.plan;
  kinds : (string * string) list;  (** instance name -> NF type *)
}

type t = {
  name : string;
  packets : int;  (** offered per simulated run *)
  arrivals : H.arrivals;
  config : Sys.config;
  fault : Sys.fault_config option;
  overload : Sys.overload_config option;
  elastic : Sys.elastic_config option;
  links : Sys.links_config option;
  compile : unit -> graph list;
  generate : int -> Packet.t;
  knee_hi : float;
      (** upper end of the [Harness.max_lossless_mpps] bisection, which
          runs over the whole offered stream on the deployment with its
          fault, overload, elastic and link subsystems disarmed *)
}

let names = [ "fwd5_64B"; "tenants_par_dc"; "armed_ids_lossy" ]

(* Independent 64-bit streams per use of the seed (traffic, jitter,
   crash storm, surge, link plan), so changing one never shifts the
   others. *)
let sub seed salt =
  Nfp_algo.Hashing.mix64
    (Int64.add (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L) (Int64.of_int salt))

(* The sequential chain of [kinds], in order. *)
let plan_of kinds =
  let profile_of n = Nfp_nf.Registry.profile_of (List.assoc n kinds) in
  match Tables.plan ~profile_of (Graph.seq (List.map (fun (n, _) -> Graph.nf n) kinds)) with
  | Ok p -> p
  | Error e -> failwith e

let instances ~wrap kinds =
  let table = Hashtbl.create 8 in
  List.iter
    (fun (name, kind) ->
      match Nfp_nf.Registry.instantiate kind ~name with
      | Some nf -> Hashtbl.replace table name (wrap nf)
      | None -> failwith ("no implementation for " ^ kind))
    kinds;
  fun name ->
    match Hashtbl.find_opt table name with
    | Some nf -> nf
    | None -> invalid_arg ("no NF instance " ^ name)

(* Set-up's second half: fresh NF instances (passed through [wrap]) and
   the deployment. [armed:false] leaves every optional subsystem off. *)
let deploy ?(wrap = Fun.id) ?stats ?(armed = true) w graphs engine ~output =
  let graphs = List.map (fun g -> (g.rule, g.plan, instances ~wrap g.kinds)) graphs in
  let opt x = if armed then x else None in
  Sys.make_multi ~config:w.config ?fault:(opt w.fault) ?overload:(opt w.overload)
    ?elastic:(opt w.elastic) ?links:(opt w.links) ?stats ~graphs engine ~output

let pktgen ~seed ~flows sizes =
  Nfp_traffic.Pktgen.create
    { Nfp_traffic.Pktgen.default with flows; sizes; seed = sub seed 1 }

(* fig7's sequential chain of five Forwarders, as [bench batch] builds
   it: trivial NF bodies, no copies or merges, every lookup a microflow
   hit. Host time is per-packet dispatch. *)
let fwd5_64B ~seed ~packets =
  let kinds = List.init 5 (fun i -> (Printf.sprintf "fwd%d" i, "Forwarder")) in
  let g = pktgen ~seed ~flows:256 (Nfp_traffic.Size_dist.fixed 64) in
  {
    name = "fwd5_64B";
    packets;
    arrivals = H.Uniform 10.0;
    config = { Sys.default_config with seed = sub seed 2 };
    fault = None;
    overload = None;
    elastic = None;
    links = None;
    compile = (fun () -> [ { rule = Flow_match.any; plan = plan_of kinds; kinds } ]);
    generate = Nfp_traffic.Pktgen.packet g;
    knee_hi = 40.0;
  }

(* 64 tenants behind one Classification Table of four mask shapes (the
   [bench classify] table), each running the quickstart policy, which
   compiles to fw -> (mon | lb): one header-only copy and two merge ops
   per packet. 131072 flows overflow the 65536-entry microflow cache. *)
let tenants = 64
let tenant_flows = 131072

let quickstart_policy =
  "NF(fw, Firewall)\n\
   NF(mon, Monitor)\n\
   NF(lb, LoadBalancer)\n\
   Order(fw, before, mon)\n\
   Order(mon, before, lb)\n"

let quickstart_kinds = [ ("fw", "Firewall"); ("mon", "Monitor"); ("lb", "LoadBalancer") ]

(* Tenant [t] owns dip 10.0.t.0/24; odd tenants also pin UDP and tenants
   with bit 1 set also carry a source-port range. *)
let tenant_rule t =
  let dip = Int32.of_int ((10 lsl 24) lor ((t land 0xff) lsl 8)) in
  Flow_match.make ~dip_prefix:(dip, 24)
    ?proto:(if t land 1 = 1 then Some 17 else None)
    ?sport_range:(if t land 2 = 2 then Some (1024, 65535) else None)
    ()

(* Flow [fid] belongs to tenant [fid mod tenants]. Sources sit in
   172.16.0.0/15, clear of the firewall ACL's 10/8 deny bands. *)
let tenant_flow fid =
  let t = fid mod tenants in
  let host = 1 + (fid / tenants mod 254) in
  let dip = Int32.of_int ((10 lsl 24) lor (t lsl 8) lor host) in
  let sip = Int32.of_int ((172 lsl 24) lor (16 lsl 16) lor fid) in
  Nfp_packet.Flow.make ~sip ~dip ~sport:(1024 + (fid / tenants)) ~dport:80
    ~proto:(if t land 1 = 1 then 17 else 6)

(* About 60% of the workload's knee (11.44 Mpps at seed 1), rounded. *)
let tenants_rate = 7.0

let tenants_par_dc ~seed ~packets =
  let g = pktgen ~seed ~flows:tenant_flows Nfp_traffic.Size_dist.datacenter in
  let flow_salt = sub seed 3 in
  let compile () =
    List.init tenants (fun t ->
        let plan =
          match Compiler.compile_text quickstart_policy with
          | Error es -> failwith (String.concat "; " es)
          | Ok out -> (
              match Tables.of_output out with Ok p -> p | Error e -> failwith e)
        in
        { rule = tenant_rule t; plan; kinds = quickstart_kinds })
  in
  let generate i =
    let fid =
      Int64.to_int (Nfp_algo.Hashing.mix64 (Int64.add flow_salt (Int64.of_int i)))
      land (tenant_flows - 1)
    in
    let payload = Packet.payload (Nfp_traffic.Pktgen.packet g i) in
    Packet.create ~flow:(tenant_flow fid) ~payload ()
  in
  {
    name = "tenants_par_dc";
    packets;
    arrivals = H.Uniform tenants_rate;
    config = { Sys.default_config with cost = Nfp_sim.Cost.classified; seed = sub seed 2 };
    fault = None;
    overload = None;
    elastic = None;
    links = None;
    compile;
    generate;
    knee_hi = 16.0;
  }

(* fwd -> fwd -> IDS with every subsystem armed: a crash storm under
   lossless checkpoint/replay restart, overload watermarks, the elastic
   controller, and 1% i.i.d. loss on every link under reliable
   channels, fed by a seeded train of 3x load spikes. *)
let ids_kinds = [ ("fwd0", "Forwarder"); ("fwd1", "Forwarder"); ("ids", "IDS") ]
let ids_base_mpps = 1.0

(* One 300 us spike to 3x the base load in every millisecond, at a seeded
   offset. [Fault.surge_storm] draws the spike count, lengths and factors
   too, and its overlapping spikes compose by product, so a seed's mean
   load, and with it p50 and p99, swings by a factor of two between
   seeds; a fixed train keeps the load level a property of the workload
   and leaves the timing to the seed. *)
let spike_period_ns = 1_000_000.0
let spike_ns = 300_000.0

let spike_train ~seed ~base_mpps ~horizon_ns =
  let prng = Nfp_algo.Prng.create ~seed in
  Nfp_sim.Fault.surge ~base_mpps
    (List.init
       (int_of_float (horizon_ns /. spike_period_ns) + 2)
       (fun k ->
         let at_ns =
           (float_of_int k *. spike_period_ns)
           +. (Nfp_algo.Prng.float prng *. (spike_period_ns -. spike_ns))
         in
         Nfp_sim.Fault.Spike { at_ns; duration_ns = spike_ns; factor = 3.0 }))

let armed_ids_lossy ~seed ~packets =
  let g = pktgen ~seed ~flows:1024 (Nfp_traffic.Size_dist.fixed 128) in
  (* Simulated span of the arrivals at the train's mean load. *)
  let mean_factor = 1.0 +. (2.0 *. spike_ns /. spike_period_ns) in
  let horizon_ns = float_of_int packets *. 1000.0 /. (ids_base_mpps *. mean_factor) in
  let cores = List.map (fun (n, _) -> "mid1:" ^ n) ids_kinds in
  let elastic = Sys.default_elastic_config in
  {
    name = "armed_ids_lossy";
    packets;
    arrivals = H.Surge (spike_train ~seed:(sub seed 4) ~base_mpps:ids_base_mpps ~horizon_ns);
    (* Rings eight times the default depth absorb a spike while the
       elastic controller scales the IDS out; the overload watermarks
       (96/48) still latch long before a ring fills. *)
    config = { Sys.default_config with seed = sub seed 2; ring_capacity = 1024 };
    fault =
      Some
        {
          Sys.default_fault_config with
          (* A fast restart: each crash delays tens of packets, so the
             tail reflects the whole armed mix rather than how many
             crashes a seed happens to draw. *)
          restart_ns = 50_000.0;
          plan =
            Nfp_sim.Fault.storm ~seed:(sub seed 5) ~cores ~mtbf_ns:40_000_000.0 ~horizon_ns ();
        };
    overload = Some Sys.default_overload_config;
    (* The default thresholds scaled to the deeper rings: scale-out at
       about 51 queued packets, as the defaults fire at 64 on a 128 ring. *)
    elastic =
      Some { elastic with scale_out_occupancy = 0.05; scale_in_occupancy = 0.005 };
    links =
      Some
        {
          Sys.default_links_config with
          link_plan =
            Nfp_sim.Fault.link_plan ~seed:(sub seed 6)
              [ Nfp_sim.Fault.loss ~probability:0.01 "*" ];
          reliable = true;
        };
    compile =
      (fun () -> [ { rule = Flow_match.any; plan = plan_of ids_kinds; kinds = ids_kinds } ]);
    generate = Nfp_traffic.Pktgen.packet g;
    knee_hi = 4.0;
  }

(* Packets per simulated run at full size; tests pass smaller counts. *)
let default_packets = function
  | "fwd5_64B" -> 50_000
  | "tenants_par_dc" -> 100_000
  | "armed_ids_lossy" -> 100_000
  | n -> invalid_arg ("unknown workload " ^ n)

(* Independent simulated runs per benchmark run, sub-run [k] of seed
   [s] from seed [s * subruns + k]; the modeled metrics are taken over
   their deliveries together. The armed mix is chaotic: a change to any
   one of its seeded inputs sends the elastic controller, the crash
   storm and the retransmits down another path, and its tail comes
   from a few rare coincidences, so a single run's p50 and p99 move by
   10% and 17% (IQR/median over ten seeds). The other two workloads
   read the same from a single run. *)
let subruns = function "armed_ids_lossy" -> 8 | _ -> 1

let make ?packets ~seed name =
  let packets = match packets with Some p -> p | None -> default_packets name in
  match name with
  | "fwd5_64B" -> fwd5_64B ~seed ~packets
  | "tenants_par_dc" -> tenants_par_dc ~seed ~packets
  | "armed_ids_lossy" -> armed_ids_lossy ~seed ~packets
  | n -> invalid_arg ("unknown workload " ^ n)
