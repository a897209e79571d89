open Nfp_packet

type stats = {
  forwarded : unit -> int;
  no_route : unit -> int;
  last_next_hop : unit -> int option;
}

type Nf.state += State of int * int * int option

let build_table n =
  let table : int Nfp_algo.Lpm.t = Nfp_algo.Lpm.create () in
  for i = 0 to n - 1 do
    (* Prefixes spread over 10.0.0.0/8 with lengths 16..28. *)
    let len = 16 + (i mod 13) in
    let prefix =
      Int32.of_int ((10 lsl 24) lor ((i * 2654435761) land 0x00ffff00))
    in
    Nfp_algo.Lpm.add table ~prefix ~len (i mod 16)
  done;
  table

(* [last] is a last-writer-wins cell read back by telemetry and folded
   into the digest: its final value depends on which packet the NF saw
   last across all flows, a global general write. That one cell pins
   the forwarder to Sequential — an honest cost of keeping the
   telemetry; a deployment that dropped [last_next_hop] would be
   Shared_nothing like the firewall. *)
let state_access =
  State_access.
    [
      global Read_only "fib";
      global Commutative "forwarded-counter";
      global Commutative "no-route-counter";
      global General "last-next-hop";
    ]

(* The next hop recorded for a packet with no route. *)
let default_hop = Some 0

let create ?(name = "fwd") ?(routes = 1000) () =
  let table = build_table routes in
  (* Build the lookup index now, as part of set-up, not on the first
     packet. *)
  ignore (Nfp_algo.Lpm.lookup_int table 0);
  let forwarded = ref 0 and no_route = ref 0 in
  let last : int option ref = ref None in
  let process pkt =
    (* The table's own [Some hop] is stored, so recording the hop
       allocates nothing. *)
    (match Nfp_algo.Lpm.lookup_int table (Packet.dip_int pkt) with
    | Some _ as hop -> last := hop
    | None ->
        incr no_route;
        last := default_hop);
    incr forwarded;
    Nf.Forward
  in
  let snapshot () = State (!forwarded, !no_route, !last) in
  let restore = function
    | State (f, n, l) ->
        forwarded := f;
        no_route := n;
        last := l
    | _ -> invalid_arg "L3_forwarder.restore: foreign state"
  in
  ( Nf.make ~name ~kind:"Forwarder"
      ~profile:[ Action.Read Field.Dip ]
      ~cost_cycles:(fun _ -> 110)
      ~state_digest:(fun () ->
        Nfp_algo.Hashing.combine !forwarded
          (Nfp_algo.Hashing.combine !no_route (match !last with Some h -> h + 1 | None -> 0)))
      ~snapshot ~restore ~state_access process,
    {
      forwarded = (fun () -> !forwarded);
      no_route = (fun () -> !no_route);
      last_next_hop = (fun () -> !last);
    } )
