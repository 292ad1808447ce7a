type action = Forward of string | To_controller

type rule = {
  cookie : int;
  priority : int;
  filters : Filter.t list;
  actions : action list;
  mutable matched : int;
}

(* [some_rule] is [Some rule], made once at install, so a lookup hands
   back the winner without boxing it. *)
type entry = { rule : rule; some_rule : rule option; installed_seq : int }

(* Entries are indexed two ways (plus a cookie map for management):

   - [exact]: rules whose every filter pins a full 5-tuple live in flat
     memory — one {!Opennf_util.Arena} row per (rule, key), chained per
     directed 5-tuple through an open-addressing int table. A packet
     probes with its own key, so a lookup inspects only the handful of
     rows installed for exactly that flow, however many flows the table
     holds — and at a million installed flows the rows cost the GC
     nothing, unlike the former per-key entry lists. Filters may still
     carry a TCP-flag constraint — rows marked with it are re-checked
     against the full rule via the cookie map.
   - [wild]: everything else, bucketed by priority. Buckets are kept in
     a list sorted by descending priority; within a bucket, entries are
     newest (highest [installed_seq]) first, so the first match found is
     the bucket's winner and scanning stops at the first bucket that
     yields one (or as soon as the exact-match candidate outranks the
     remaining buckets).

   Every lookup goes through both indexes; nothing is memoized per
   flow, so a lookup stores nothing and allocates nothing. *)

type bucket = { prio : int; mutable entries : entry list }

module Arena = Opennf_util.Arena

(* Exact-index row layout: directed 5-tuple at the head, then the three
   ints [decide] compares (priority, install seq, cookie) and the chain
   link — everything a lookup needs without touching a rule record
   until the winner is known. *)
let eo_flag = 13 (* u8: rule carries a TCP-flag filter; re-check it *)
let eo_prio = 16 (* int *)
let eo_seq = 24 (* int *)
let eo_cookie = 32 (* int *)
let eo_next = 40 (* handle of the next row for the same key; null ends *)
let e_stride = 48

(* 8-byte int fields, sign-extended. *)
let[@inline] get_int b o = Int64.to_int (Bytes.get_int64_le b o)
let[@inline] set_int b o v = Bytes.set_int64_le b o (Int64.of_int v)

module Int_table = Opennf_util.Int_table

type t = {
  by_cookie : entry Int_table.t;
  exact : Arena.t;
  (* eidx: directed-key probe table; slots hold the chain-head handle
     (0 = empty, -1 = tombstone). *)
  mutable eidx : int array;
  mutable emask : int;
  mutable ecount : int; (* distinct exact keys (chains) *)
  mutable etombs : int;
  mutable wild : bucket list;  (* Sorted by descending priority. *)
  mutable next_seq : int;
  m_lookups : Opennf_obs.Metrics.counter;
}

(* What the indexes return when no rule matches: its priority ranks
   below every rule's, and its [some_rule] is the lookup's [None]. *)
let no_entry =
  let rule =
    { cookie = min_int; priority = min_int; filters = []; actions = []; matched = 0 }
  in
  { rule; some_rule = None; installed_seq = min_int }

let create ?engine () =
  let obs =
    match engine with
    | Some e -> Opennf_sim.Engine.obs e
    | None -> Opennf_obs.Hub.disabled
  in
  let metrics = Opennf_obs.Hub.metrics obs in
  {
    by_cookie = Int_table.create 64;
    exact = Arena.create ~stride:e_stride ();
    eidx = Array.make 256 0;
    emask = 255;
    ecount = 0;
    etombs = 0;
    wild = [];
    next_seq = 0;
    m_lookups = Opennf_obs.Metrics.counter metrics "ft.lookups";
  }

let has_flag_filter rule =
  List.exists (fun f -> Option.is_some f.Filter.tcp_flag) rule.filters

(* --- exact index ---------------------------------------------------------
   Open addressing over int slots, same discipline as the arena-backed
   per-flow stores: probes compare the packet's key against the chain
   head's {!Key_row} head (two 64-bit words, masked short of [eo_flag]),
   so the hot path allocates nothing. *)

(* Whether the row of live handle [h] holds the directed key. *)
let row_holds t h src dst w1 =
  let r = Arena.index t.exact h in
  Key_row.matches (Arena.slab t.exact r) (Arena.offset t.exact r) src dst w1

(* Slot holding the chain for the directed key, or -1. *)
let eprobe_find t src dst pr sp dp =
  let w1 = Key_row.word1 pr sp dp in
  let i = ref (Key_row.hash src dst pr sp dp land t.emask) in
  let slot = ref (-1) in
  let continue = ref true in
  while !continue do
    let v = t.eidx.(!i) in
    if v = 0 then continue := false
    else if v <> -1 && row_holds t v src dst w1 then begin
      slot := !i;
      continue := false
    end
    else i := (!i + 1) land t.emask
  done;
  !slot

let eresize t slots =
  let idx = Array.make slots 0 in
  let mask = slots - 1 in
  Array.iter
    (fun v ->
      if v <> 0 && v <> -1 then begin
        let r = Arena.index t.exact v in
        let b = Arena.slab t.exact r and o = Arena.offset t.exact r in
        let h = Key_row.hash_at b o in
        let i = ref (h land mask) in
        while idx.(!i) <> 0 do
          i := (!i + 1) land mask
        done;
        idx.(!i) <- v
      end)
    t.eidx;
  t.eidx <- idx;
  t.emask <- mask;
  t.etombs <- 0

(* Prepend a row for [e] onto [k]'s chain (newest-first, like the entry
   lists this replaces), creating the chain if the key is new. *)
let eindex_add t e (k : Flow.key) =
  let src = Ipaddr.to_int k.Flow.src_ip
  and dst = Ipaddr.to_int k.Flow.dst_ip
  and pr = Key_row.rank k.Flow.proto
  and sp = k.Flow.src_port
  and dp = k.Flow.dst_port in
  let w1 = Key_row.word1 pr sp dp in
  let i = ref (Key_row.hash src dst pr sp dp land t.emask) in
  let free = ref (-1) in
  let found = ref (-1) in
  let continue = ref true in
  while !continue do
    let v = t.eidx.(!i) in
    if v = 0 then begin
      if !free = -1 then free := !i;
      continue := false
    end
    else if v = -1 then begin
      if !free = -1 then free := !i;
      i := (!i + 1) land t.emask
    end
    else if row_holds t v src dst w1 then begin
      found := !i;
      continue := false
    end
    else i := (!i + 1) land t.emask
  done;
  let h = Arena.alloc t.exact in
  let r = Arena.index t.exact h in
  let b = Arena.slab t.exact r and o = Arena.offset t.exact r in
  Key_row.write b o src dst w1;
  Bytes.set_uint8 b (o + eo_flag) (if has_flag_filter e.rule then 1 else 0);
  set_int b (o + eo_prio) e.rule.priority;
  set_int b (o + eo_seq) e.installed_seq;
  set_int b (o + eo_cookie) e.rule.cookie;
  if !found <> -1 then begin
    set_int b (o + eo_next) t.eidx.(!found);
    t.eidx.(!found) <- h
  end
  else begin
    set_int b (o + eo_next) Arena.null;
    if t.eidx.(!free) = -1 then t.etombs <- t.etombs - 1;
    t.eidx.(!free) <- h;
    t.ecount <- t.ecount + 1;
    if 2 * (t.ecount + t.etombs) > t.emask + 1 then begin
      let slots = ref (t.emask + 1) in
      while 2 * (t.ecount + 1) > !slots do
        slots := !slots * 2
      done;
      eresize t !slots
    end
  end

(* Drop [e]'s row from [k]'s chain, tombstoning the slot if the chain
   empties. Cookie identifies the row: install replaces (unlinks) any
   previous entry with the same cookie before linking the new one. *)
let eindex_remove t e (k : Flow.key) =
  let s =
    eprobe_find t
      (Ipaddr.to_int k.Flow.src_ip)
      (Ipaddr.to_int k.Flow.dst_ip)
      (Key_row.rank k.Flow.proto) k.Flow.src_port k.Flow.dst_port
  in
  if s <> -1 then begin
    let cookie = e.rule.cookie in
    let rec filter h =
      if h = Arena.null then Arena.null
      else begin
        let next = Arena.get_int t.exact h eo_next in
        if Arena.get_int t.exact h eo_cookie = cookie then begin
          Arena.free t.exact h;
          filter next
        end
        else begin
          Arena.set_int t.exact h eo_next (filter next);
          h
        end
      end
    in
    match filter t.eidx.(s) with
    | 0 ->
      t.eidx.(s) <- -1;
      t.ecount <- t.ecount - 1;
      t.etombs <- t.etombs + 1
    | head -> t.eidx.(s) <- head
  end

let exact_keys rule =
  let keys = List.map Filter.exact_key rule.filters in
  if List.for_all Option.is_some keys then
    Some (List.sort_uniq Flow.compare (List.filter_map Fun.id keys))
  else None

let unlink t e =
  Int_table.remove t.by_cookie e.rule.cookie;
  match exact_keys e.rule with
  | Some keys -> List.iter (eindex_remove t e) keys
  | None ->
    List.iter
      (fun b -> b.entries <- List.filter (fun e' -> e' != e) b.entries)
      t.wild;
    t.wild <- List.filter (fun b -> b.entries <> []) t.wild

let link t e =
  Int_table.replace t.by_cookie e.rule.cookie e;
  match exact_keys e.rule with
  | Some keys -> List.iter (eindex_add t e) keys
  | None -> (
    (* New entries always carry the largest seq, so prepending keeps the
       bucket newest-first. *)
    match List.find_opt (fun b -> b.prio = e.rule.priority) t.wild with
    | Some b -> b.entries <- e :: b.entries
    | None ->
      (* Sorted insert (descending priority): the bucket list stays
         ordered without re-sorting it on every new priority. *)
      let b = { prio = e.rule.priority; entries = [ e ] } in
      let rec insert = function
        | [] -> [ b ]
        | b' :: _ as rest when b.prio > b'.prio -> b :: rest
        | b' :: rest -> b' :: insert rest
      in
      t.wild <- insert t.wild)

let install t ~cookie ~priority ~filters ~actions =
  let rule = { cookie; priority; filters; actions; matched = 0 } in
  let entry = { rule; some_rule = Some rule; installed_seq = t.next_seq } in
  t.next_seq <- t.next_seq + 1;
  (match Int_table.find_opt t.by_cookie cookie with
  | Some old -> unlink t old
  | None -> ());
  link t entry

let remove t ~cookie =
  match Int_table.find_opt t.by_cookie cookie with
  | None -> ()
  | Some e -> unlink t e

let rec any_matches p = function
  | [] -> false
  | f :: rest -> Filter.matches_packet f p || any_matches p rest

let rule_matches r p = any_matches p r.filters

(* Higher priority wins; the most recent install breaks ties. *)
let beats a b =
  a.rule.priority > b.rule.priority
  || (a.rule.priority = b.rule.priority && a.installed_seq > b.installed_seq)

(* Walk the packet key's chain comparing raw (priority, seq) ints; only
   the winning row's entry is fetched (via the cookie map), and only
   flag-marked rows pay a full [rule_matches] re-check. Unmarked rows
   match by construction: their filters pin exactly this 5-tuple and
   packet matching ignores the app field. Every row's cookie is in the
   cookie map: [unlink] drops both together. *)
let exact_best t p =
  let k = p.Packet.key in
  let s =
    eprobe_find t
      (Ipaddr.to_int k.Flow.src_ip)
      (Ipaddr.to_int k.Flow.dst_ip)
      (Key_row.rank k.Flow.proto) k.Flow.src_port k.Flow.dst_port
  in
  if s = -1 then no_entry
  else begin
    let a = t.exact in
    let found = ref false and best = ref 0 in
    let bp = ref min_int and bs = ref min_int in
    let h = ref t.eidx.(s) in
    while !h <> Arena.null do
      let r = Arena.index a !h in
      let b = Arena.slab a r and o = Arena.offset a r in
      let prio = get_int b (o + eo_prio) in
      let seq = get_int b (o + eo_seq) in
      let cookie = get_int b (o + eo_cookie) in
      if
        (prio > !bp || (prio = !bp && seq > !bs))
        && (Bytes.get_uint8 b (o + eo_flag) = 0
           || rule_matches (Int_table.find t.by_cookie cookie).rule p)
      then begin
        found := true;
        best := cookie;
        bp := prio;
        bs := seq
      end;
      h := get_int b (o + eo_next)
    done;
    if !found then Int_table.find t.by_cookie !best else no_entry
  end

(* The newest matching entry of the highest-priority bucket that has
   one, stopping once the buckets rank below [limit] (the exact index's
   winner's priority). *)
let rec entry_scan p = function
  | [] -> no_entry
  | e :: rest -> if rule_matches e.rule p then e else entry_scan p rest

let rec wild_best p limit = function
  | [] -> no_entry
  | b :: rest ->
    if limit > b.prio then no_entry
    else
      let e = entry_scan p b.entries in
      if e != no_entry then e else wild_best p limit rest

let decide t p =
  let exact = exact_best t p in
  let wild = wild_best p exact.rule.priority t.wild in
  if wild == no_entry then exact
  else if exact != no_entry && beats exact wild then exact
  else wild

let lookup t p =
  Opennf_obs.Metrics.incr t.m_lookups;
  let e = decide t p in
  if e != no_entry then e.rule.matched <- e.rule.matched + 1;
  e.some_rule

let find t ~cookie =
  match Int_table.find_opt t.by_cookie cookie with
  | Some e -> e.some_rule
  | None -> None

(* Newest-first dump: the cookie table's entries sorted by descending
   install sequence (sequences are unique, so the order is total). *)
let rules t =
  Int_table.fold (fun _ e acc -> e :: acc) t.by_cookie []
  |> List.sort (fun a b -> Int.compare b.installed_seq a.installed_seq)
  |> List.map (fun e -> e.rule)

let size t = Int_table.length t.by_cookie

(* Cookies are allocated strided by controller shard (see
   {!Opennf.Controller.fresh_cookie}): cookie mod shards names the
   owning shard, so the cookie partition is the table slice. *)
let slice_counts t ~shards =
  if shards < 1 then invalid_arg "Flowtable.slice_counts: shards must be >= 1";
  let counts = Array.make shards 0 in
  Int_table.iter
    (fun cookie _ ->
      let s = ((cookie mod shards) + shards) mod shards in
      counts.(s) <- counts.(s) + 1)
    t.by_cookie;
  counts
