(* Digests of one harness run, shared by the suites that pin runs to
   committed constants (test_golden, test_fastpath).

   [observe] runs [make] under the harness and folds everything it saw
   into five MD5 digests: the delivery sequence (pid, simulated time
   and bytes, in delivery order), the exact latency mean and p99 with
   the sample count and run duration, the drop taxonomy, the ordered
   per-core health view, and the remaining health counters. Two runs
   with equal digests delivered the same packets, in the same order, at
   the same simulated instants, with the same bytes. *)

open Nfp_packet
module H = Nfp_sim.Harness

let hex s = Digest.to_hex (Digest.string s)

type digests = {
  delivery : string;
  latency : string;
  drops : string;
  cores : string;
  counters : string;
}

let pp_digests ppf d =
  Fmt.pf ppf "{ delivery = %S; latency = %S; drops = %S; cores = %S; counters = %S }"
    d.delivery d.latency d.drops d.cores d.counters

let digests_t = Alcotest.testable pp_digests ( = )

let observe ~make ~gen ~arrivals ~packets =
  let chain = ref "" in
  let make engine ~output =
    make engine ~output:(fun ~pid pkt ->
        chain :=
          Digest.string
            (Printf.sprintf "%s|%Ld@%h:%s" !chain pid (Nfp_sim.Engine.now engine)
               (Bytes.to_string (Packet.to_bytes pkt)));
        output ~pid pkt)
  in
  let r = H.run ~make ~gen ~arrivals ~packets () in
  let h = r.health in
  let d = h.drops in
  let l = h.links in
  let digests =
    {
      delivery = (if !chain = "" then hex "" else Digest.to_hex !chain);
      latency =
        (* A run whose every packet is dropped has no latency samples:
           its mean is NaN and its p99 is taken as NaN too. *)
        (let n = Nfp_algo.Stats.count r.latency in
         hex
           (Printf.sprintf "%h %h %d %h" (Nfp_algo.Stats.mean r.latency)
              (if n = 0 then Float.nan else Nfp_algo.Stats.percentile r.latency 99.0)
              n r.duration_ns));
      drops =
        hex
          (Printf.sprintf "%d %d %d %d %d %d %d %d | %d %d %d %d %d %d %d %d %d [%s]"
             r.offered r.delivered r.completed r.ring_drops r.nf_drops r.unmatched
             r.shed r.in_flight d.ingress_rejected d.internal_rejected d.nf_dropped
             d.no_match d.fault_dropped d.flush_lost d.merge_timed_out d.shed d.degraded
             (String.concat ";"
                (List.map (fun (c, n) -> Printf.sprintf "%d=%d" c n) d.shed_by_class)));
      cores =
        hex
          (String.concat ";"
             (List.map
                (fun (c : H.core_health) ->
                  Printf.sprintf "%s=%s/%d/%d" c.core c.state c.processed c.queue)
                h.cores));
      counters =
        hex
          (String.concat " "
             (List.map string_of_int
                [
                  h.detections; h.crashes; h.restarts; h.bypasses; h.degrades;
                  h.recoveries; d.merge_timed_out; h.bypassed_packets; d.fault_dropped;
                  d.flush_lost; h.checkpoints; h.forced_checkpoints; h.replayed;
                  h.deduped; h.salvaged; h.pressure_episodes; h.breaker_trips;
                  h.backoffs; h.degrade_switches; h.scale_outs; h.scale_ins;
                  h.migrations; h.migration_aborts; h.migrated_packets; h.migrating;
                  l.link_drops; l.retransmits; l.duplicates_suppressed; l.reordered;
                  l.partitions; l.reroutes; h.dedup_entries;
                ]));
    }
  in
  (digests, r)
