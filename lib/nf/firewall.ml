open Nfp_packet

type rule = {
  sip_prefix : int32 * int;
  dip_prefix : int32 * int;
  sport_range : int * int;
  dport_range : int * int;
  proto : int option;
  permit : bool;
}

let any_rule ~permit =
  {
    sip_prefix = (0l, 0);
    dip_prefix = (0l, 0);
    sport_range = (0, 0xffff);
    dport_range = (0, 0xffff);
    proto = None;
    permit;
  }

let prefix_matches (prefix, len) addr =
  len = 0
  ||
  let mask = Int32.shift_left (-1l) (32 - len) in
  Int32.equal (Int32.logand addr mask) (Int32.logand prefix mask)

let in_range (lo, hi) v = v >= lo && v <= hi

let matches rule pkt =
  prefix_matches rule.sip_prefix (Packet.sip pkt)
  && prefix_matches rule.dip_prefix (Packet.dip pkt)
  && in_range rule.sport_range (Packet.sport pkt)
  && in_range rule.dport_range (Packet.dport pkt)
  && match rule.proto with None -> true | Some p -> p = Packet.proto pkt

let default_acl n =
  (* Deny a spread of /24s and port bands; deterministic so tests and
     benches see identical behaviour. *)
  List.init n (fun i ->
      let octet2 = (i * 7) mod 250 in
      let octet3 = (i * 13) mod 250 in
      {
        sip_prefix = (Int32.of_int ((10 lsl 24) lor (octet2 lsl 16) lor (octet3 lsl 8)), 24);
        dip_prefix = (0l, 0);
        sport_range = (0, 0xffff);
        dport_range = ((i * 101) mod 60000, ((i * 101) mod 60000) + 50);
        proto = None;
        permit = false;
      })

type stats = { passed : unit -> int; dropped : unit -> int }

type Nf.state += State of int * int

let profile =
  Action.
    [ Read Field.Sip; Read Field.Dip; Read Field.Sport; Read Field.Dport; Drop ]

let state_access =
  State_access.
    [
      global Read_only "acl";
      global Commutative "passed-counter";
      global Commutative "dropped-counter";
    ]

let merge states =
  let passed = ref 0 and dropped = ref 0 in
  List.iter
    (function
      | State (p, d) ->
          passed := !passed + p;
          dropped := !dropped + d
      | _ -> invalid_arg "Firewall.merge: foreign state")
    states;
  State (!passed, !dropped)

(* The ACL compiled to flat int columns, one entry per rule in order:
   unsigned address masks and masked values (mask 0 matches any
   address), inclusive port bounds, and the protocol with -1 for "any".
   A packet's header fields are read once and the columns scanned for
   the first match: [Packet.sip]/[dip] would box an int32 per rule. *)
type compiled = {
  sip_mask : int array;
  sip_value : int array;
  dip_mask : int array;
  dip_value : int array;
  sport_lo : int array;
  sport_hi : int array;
  dport_lo : int array;
  dport_hi : int array;
  proto_of : int array;
  permit : bool array;
}

let compile acl =
  let rules = Array.of_list acl in
  let col f = Array.map f rules in
  let mask len = if len = 0 then 0 else (0xffffffff lsl (32 - len)) land 0xffffffff in
  let value (prefix, len) = Int32.to_int prefix land mask len in
  {
    sip_mask = col (fun r -> mask (snd r.sip_prefix));
    sip_value = col (fun r -> value r.sip_prefix);
    dip_mask = col (fun r -> mask (snd r.dip_prefix));
    dip_value = col (fun r -> value r.dip_prefix);
    sport_lo = col (fun r -> fst r.sport_range);
    sport_hi = col (fun r -> snd r.sport_range);
    dport_lo = col (fun r -> fst r.dport_range);
    dport_hi = col (fun r -> snd r.dport_range);
    proto_of = col (fun r -> match r.proto with None -> -1 | Some p -> p);
    permit = col (fun r -> r.permit);
  }

(* Index of the first rule matching the packet, or -1. *)
let first_match c pkt =
  let sip = Packet.sip_int pkt and dip = Packet.dip_int pkt in
  let sport = Packet.sport pkt and dport = Packet.dport pkt in
  let proto = Packet.proto pkt in
  let n = Array.length c.permit in
  let i = ref 0 and found = ref (-1) in
  while !found < 0 && !i < n do
    let k = !i in
    if
      sip land c.sip_mask.(k) = c.sip_value.(k)
      && dip land c.dip_mask.(k) = c.dip_value.(k)
      && sport >= c.sport_lo.(k)
      && sport <= c.sport_hi.(k)
      && dport >= c.dport_lo.(k)
      && dport <= c.dport_hi.(k)
      && (c.proto_of.(k) < 0 || c.proto_of.(k) = proto)
    then found := k
    else i := k + 1
  done;
  !found

(* Every instance built on the default ACL, and every replica, shares one
   compiled form: compiling per instance would add to each deployment's
   set-up. *)
let default_compiled = compile (default_acl 100)

let rec create_compiled ~name ~extra_cycles acl =
  let passed = ref 0 and dropped = ref 0 in
  let process pkt =
    let k = first_match acl pkt in
    if k >= 0 && not acl.permit.(k) then begin
      incr dropped;
      Nf.Dropped
    end
    else begin
      incr passed;
      Nf.Forward
    end
  in
  let cost_cycles _ = 190 + extra_cycles in
  let snapshot () = State (!passed, !dropped) in
  let restore = function
    | State (p, d) ->
        passed := p;
        dropped := d
    | _ -> invalid_arg "Firewall.restore: foreign state"
  in
  ( Nf.make ~name ~kind:"Firewall" ~profile ~cost_cycles
      ~state_digest:(fun () -> Nfp_algo.Hashing.combine !passed !dropped)
      ~snapshot ~restore ~state_access
      ~fresh:(fun () -> fst (create_compiled ~name ~extra_cycles acl))
      ~merge
        (* Only commutative counters: migration moves the zero state. *)
      ~extract:(fun _ -> State (0, 0))
      process,
    { passed = (fun () -> !passed); dropped = (fun () -> !dropped) } )

let create ?(name = "fw") ?(extra_cycles = 0) ?acl () =
  let acl = match acl with Some a -> compile a | None -> default_compiled in
  create_compiled ~name ~extra_cycles acl
