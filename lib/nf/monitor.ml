open Nfp_packet

type counter = { packets : int; bytes : int }

type stats = {
  flows : unit -> int;
  lookup : Flow.t -> counter option;
  total_packets : unit -> int;
}

(* Keyed by the 5-tuple with its own equality and hash: the generic
   [Hashtbl] would route every packet through the polymorphic
   [caml_hash] and [compare_val]. *)
module Flows = Hashtbl.Make (Flow)

type Nf.state += State of counter Flows.t * int

let profile =
  Action.
    [ Read Field.Sip; Read Field.Dip; Read Field.Sport; Read Field.Dport; Read Field.Len ]

let state_access =
  State_access.
    [
      per_flow Commutative "flow-counters"; global Commutative "total-packets";
    ]

(* Shards recombine by summing, so the merged table's iteration order
   differs from a single instance's — the digest must be a commutative
   fold (a sum of per-entry hashes), not an order-dependent chain. *)
let merge states =
  let table = Flows.create 1024 and total = ref 0 in
  List.iter
    (function
      | State (t, n) ->
          total := !total + n;
          Flows.iter
            (fun flow c ->
              let prev =
                match Flows.find_opt table flow with
                | Some p -> p
                | None -> { packets = 0; bytes = 0 }
              in
              Flows.replace table flow
                { packets = prev.packets + c.packets; bytes = prev.bytes + c.bytes })
            t
      | _ -> invalid_arg "Monitor.merge: foreign state")
    states;
  State (table, !total)

let rec create ?(name = "mon") () =
  let table = ref (Flows.create 1024) in
  let total = ref 0 in
  let process pkt =
    let flow = Packet.flow pkt in
    let prev =
      match Flows.find_opt !table flow with Some c -> c | None -> { packets = 0; bytes = 0 }
    in
    Flows.replace !table flow
      { packets = prev.packets + 1; bytes = prev.bytes + Packet.wire_length pkt };
    incr total;
    Nf.Forward
  in
  let state_digest () =
    Flows.fold
      (fun flow c acc ->
        (acc
        + Nfp_algo.Hashing.combine (Flow.hash flow)
            (Nfp_algo.Hashing.combine c.packets c.bytes))
        land max_int)
      !table !total
  in
  let snapshot () = State (Flows.copy !table, !total) in
  let restore = function
    | State (t, n) ->
        table := Flows.copy t;
        total := n
    | _ -> invalid_arg "Monitor.restore: foreign state"
  in
  (* Migration source half: carve the matching flows' counters out of
     the live table. The global total is commutative — it stays where
     the packets were counted and sums back under [merge]. *)
  let extract pred =
    let moved = Flows.create 64 in
    Flows.iter (fun flow c -> if pred flow then Flows.replace moved flow c) !table;
    Flows.iter (fun flow _ -> Flows.remove !table flow) moved;
    State (moved, 0)
  in
  ( Nf.make ~name ~kind:"Monitor" ~profile ~cost_cycles:(fun _ -> 220) ~state_digest
      ~snapshot ~restore ~state_access
      ~fresh:(fun () -> fst (create ~name ()))
      ~merge ~extract process,
    {
      flows = (fun () -> Flows.length !table);
      lookup = (fun f -> Flows.find_opt !table f);
      total_packets = (fun () -> !total);
    } )
