(* The unibit binary trie that backed [Nfp_algo.Lpm] before its interval
   index: one node per prefix bit, the longest match found by walking
   the address's bits from the top. Kept here as the differential oracle
   for the library table (test_algo). *)

type 'a node = {
  mutable value : 'a option;
  mutable zero : 'a node option;
  mutable one : 'a node option;
}

type 'a t = { root : 'a node; mutable count : int }

let make_node () = { value = None; zero = None; one = None }

let create () = { root = make_node (); count = 0 }

(* Bit [i] of an address, counting from the most significant bit. *)
let bit addr i = Int32.logand (Int32.shift_right_logical addr (31 - i)) 1l = 1l

let check_len len =
  if len < 0 || len > 32 then invalid_arg "Lpm: prefix length must be in [0, 32]"

let child node b =
  let slot = if b then node.one else node.zero in
  match slot with
  | Some c -> c
  | None ->
      let c = make_node () in
      if b then node.one <- Some c else node.zero <- Some c;
      c

let add t ~prefix ~len v =
  check_len len;
  let rec go node i =
    if i = len then begin
      if node.value = None then t.count <- t.count + 1;
      node.value <- Some v
    end
    else go (child node (bit prefix i)) (i + 1)
  in
  go t.root 0

let lookup t addr =
  let rec go node i best =
    let best = match node.value with Some _ as v -> v | None -> best in
    if i = 32 then best
    else
      let next = if bit addr i then node.one else node.zero in
      match next with None -> best | Some c -> go c (i + 1) best
  in
  go t.root 0 None

let remove t ~prefix ~len =
  check_len len;
  let rec go node i =
    if i = len then begin
      if node.value <> None then t.count <- t.count - 1;
      node.value <- None
    end
    else
      let next = if bit prefix i then node.one else node.zero in
      match next with None -> () | Some c -> go c (i + 1)
  in
  go t.root 0

let entries t = t.count
