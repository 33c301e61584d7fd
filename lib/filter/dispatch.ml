module Packet = Pf_pkt.Packet

type 'a entry = {
  rank : int;
  value : 'a;
  exact : bool;
  fast : Fast.t;
  validated : Validate.t;
  mutable shadowed_by : int option; (* rank of the kept entry shadowing it *)
}

(* One guard-value tuple of a group: every entry requiring it, and the ones
   shadow elimination keeps, both in rank order. [all] is never empty, so
   neither is [kept]: nothing can shadow a slot's first entry. *)
type 'a slot = { mutable all : 'a entry list; mutable kept : 'a entry list }

type 'a group = {
  signature : int list; (* sorted, duplicate-free *)
  offsets : int array; (* the signature, for probing *)
  slots : (string, 'a slot) Hashtbl.t;
}

type residual_reason = [ `Unbounded | `No_chain | `Excluded ]

type decision =
  | Indexed of { offsets : int list; exact : bool }
  | Shadowed of { by : int }
  | Residual of residual_reason
  | Never_accepts

(* Where one added filter went: into a slot, or straight to its decision
   ([Residual _] or [Never_accepts]). *)
type 'a member =
  | Slotted of { group : 'a group; key : string; slot : 'a slot; entry : 'a entry }
  | Unslotted of 'a * decision

type 'a t = {
  indexable : 'a -> bool;
  members : (int, 'a member) Hashtbl.t; (* by rank *)
  by_signature : (int list, 'a group) Hashtbl.t;
  mutable groups : 'a group list; (* sorted by signature: deterministic *)
  mutable residual : (int * 'a) list; (* rank order *)
}

module For_testing = struct
  (* When set, classify accepts every slot-matched entry on its guard
     prefix alone — the unsound sharing the [exact] flag prevents. Only the
     differential suite flips this, to prove the oracle catches it. *)
  let unsound_prefix_sharing = ref false
end

(* One required value per offset, sorted by offset; [None] when the chain
   demands two different values of the same word — such a filter accepts
   nothing (each guard is necessary). *)
let canonical_chain chain =
  let rec go acc = function
    | [] -> Some (List.sort compare acc)
    | (off, v) :: rest -> (
      match List.assoc_opt off acc with
      | Some v' when v' <> v -> None
      | Some _ -> go acc rest
      | None -> go ((off, v) :: acc) rest)
  in
  go [] chain

let slot_key values =
  let buf = Buffer.create (2 * List.length values) in
  List.iter
    (fun v ->
      Buffer.add_char buf (Char.chr (v lsr 8));
      Buffer.add_char buf (Char.chr (v land 0xff)))
    values;
  Buffer.contents buf

let create ?(indexable = fun _ -> true) () =
  {
    indexable;
    members = Hashtbl.create 64;
    by_signature = Hashtbl.create 16;
    groups = [];
    residual = [];
  }

(* Shadow elimination over one slot, in rank order: an earlier exact entry
   accepts every packet that reaches its slot, and an earlier entry that
   Subsumes (or is Equivalent to) a later one accepts every packet the
   later one would — either way the earlier, lower-rank entry wins every
   such packet, so the later entry is dead weight and is dropped.
   Subsumption is Analysis.relate first, the symbolic engine (memoized,
   small budget) where it answers Unknown; Equiv.relate only ever upgrades
   to Equivalent/Disjoint, both sound here. An entry's fate depends only
   on the entries ranked before it, so after a change at rank [from] only
   the entries from there on are revisited. *)
let reshadow slot ~from =
  let memo = Equiv.Memo.create () in
  let shadows k e =
    k.exact
    ||
    match Equiv.relate_memo ~budget:64 ~pair_budget:256 memo k.validated e.validated with
    | Analysis.Subsumes | Analysis.Equivalent -> true
    | Analysis.Subsumed_by | Analysis.Disjoint | Analysis.Unknown -> false
  in
  slot.kept <-
    List.fold_left
      (fun kept e ->
        if e.rank < from then kept
        else
          match List.find_opt (fun k -> shadows k e) kept with
          | Some k ->
            e.shadowed_by <- Some k.rank;
            kept
          | None ->
            e.shadowed_by <- None;
            kept @ [ e ])
      (List.filter (fun k -> k.rank < from) slot.kept)
      slot.all

let rec insert_ranked rank_of x = function
  | y :: rest when rank_of y < rank_of x -> y :: insert_ranked rank_of x rest
  | l -> x :: l

let remove t ~rank =
  match Hashtbl.find_opt t.members rank with
  | None -> ()
  | Some member -> (
    Hashtbl.remove t.members rank;
    match member with
    | Unslotted (_, Residual _) ->
      t.residual <- List.filter (fun (r, _) -> r <> rank) t.residual
    | Unslotted (_, _) -> ()
    | Slotted { group; key; slot; entry } -> (
      match List.filter (fun e -> e != entry) slot.all with
      | [] ->
        (* Drop the emptied slot, and its group with it: classification
           probes every group, so an empty one would still cost a probe. *)
        Hashtbl.remove group.slots key;
        if Hashtbl.length group.slots = 0 then begin
          Hashtbl.remove t.by_signature group.signature;
          t.groups <- List.filter (fun g -> g != group) t.groups
        end
      | all ->
        slot.all <- all;
        reshadow slot ~from:rank))

let group_of t signature =
  match Hashtbl.find_opt t.by_signature signature with
  | Some g -> g
  | None ->
    let g = { signature; offsets = Array.of_list signature; slots = Hashtbl.create 16 } in
    Hashtbl.add t.by_signature signature g;
    t.groups <- insert_ranked (fun g -> g.signature) g t.groups;
    g

let add t ~rank fast value =
  remove t ~rank;
  let validated = Fast.validated fast in
  let analysis = Fast.analysis fast in
  let chain, whole = Analysis.guards (Validate.program validated) in
  let unslotted d =
    (match d with
    | Residual _ -> t.residual <- insert_ranked fst (rank, value) t.residual
    | _ -> ());
    Unslotted (value, d)
  in
  let member =
    if analysis.Analysis.verdict = Analysis.Always_reject then unslotted Never_accepts
    else
      match canonical_chain chain with
      | None -> unslotted Never_accepts
      | Some canonical ->
        if not (t.indexable value) then unslotted (Residual `Excluded)
        else if analysis.Analysis.read_set = Analysis.Unbounded then
          unslotted (Residual `Unbounded)
        else if canonical = [] then unslotted (Residual `No_chain)
        else begin
          let group = group_of t (List.map fst canonical) in
          let key = slot_key (List.map snd canonical) in
          let entry = { rank; value; exact = whole; fast; validated; shadowed_by = None } in
          let slot =
            match Hashtbl.find_opt group.slots key with
            | Some slot ->
              slot.all <- insert_ranked (fun e -> e.rank) entry slot.all;
              reshadow slot ~from:rank;
              slot
            | None ->
              let slot = { all = [ entry ]; kept = [ entry ] } in
              Hashtbl.add group.slots key slot;
              slot
          in
          Slotted { group; key; slot; entry }
        end
  in
  Hashtbl.replace t.members rank member

let build ?indexable filters =
  (* Walk order: decreasing priority, ties by list position — the order the
     kernel's sequential demux applies these filters in. Adding in rank
     order means each add revisits only its own entry. *)
  let t = create ?indexable () in
  List.mapi (fun i (validated, value) -> (i, validated, value)) filters
  |> List.stable_sort (fun (i, va, _) (j, vb, _) ->
         match
           compare
             (Program.priority (Validate.program vb))
             (Program.priority (Validate.program va))
         with
         | 0 -> compare i j
         | c -> c)
  |> List.iteri (fun rank (_, validated, value) ->
         add t ~rank (Fast.compile validated) value);
  t

let size t = Hashtbl.length t.members
let residuals t = t.residual

let decisions t =
  let members =
    Hashtbl.fold (fun rank m acc -> (rank, m) :: acc) t.members []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let position = Hashtbl.create (List.length members) in
  List.iteri (fun i (rank, _) -> Hashtbl.add position rank i) members;
  List.mapi
    (fun i (_, m) ->
      match m with
      | Unslotted (value, d) -> (i, value, d)
      | Slotted { group; entry; _ } -> (
        ( i,
          entry.value,
          match entry.shadowed_by with
          | Some by -> Shadowed { by = Hashtbl.find position by }
          | None -> Indexed { offsets = group.signature; exact = entry.exact } )))
    members

type stats = {
  probes : int;
  hash_words : int;
  exact_accepts : int;
  candidates_run : int;
  insns : int;
}

let classify ?(on_run = fun _ ~insns:_ -> ()) t packet =
  let probes = ref 0
  and hash_words = ref 0
  and exact_accepts = ref 0
  and candidates_run = ref 0
  and insns = ref 0 in
  (* Probe each group: a missing guard word means every member of the group
     rejects (its pushword faults), so the whole group is skipped. Distinct
     slots of one group demand different values of a shared word, hence are
     pairwise disjoint — probing order cannot matter. *)
  let matched =
    List.fold_left
      (fun acc g ->
        incr probes;
        let n = Array.length g.offsets in
        let buf = Buffer.create (2 * n) in
        let rec key i =
          if i = n then begin
            hash_words := !hash_words + n;
            Some (Buffer.contents buf)
          end
          else
            match Packet.word_opt packet g.offsets.(i) with
            | None ->
              hash_words := !hash_words + i + 1;
              None
            | Some w ->
              Buffer.add_char buf (Char.chr (w lsr 8));
              Buffer.add_char buf (Char.chr (w land 0xff));
              key (i + 1)
        in
        match key 0 with
        | None -> acc
        | Some k -> (
          match Hashtbl.find_opt g.slots k with
          | Some slot -> List.rev_append slot.kept acc
          | None -> acc))
      [] t.groups
  in
  let matched = List.sort (fun a b -> compare a.rank b.rank) matched in
  let rec scan = function
    | [] -> None
    | e :: rest ->
      if e.exact || !For_testing.unsound_prefix_sharing then begin
        incr exact_accepts;
        Some (e.rank, e.value)
      end
      else begin
        let ok, n = Fast.run_counted e.fast packet in
        incr candidates_run;
        insns := !insns + n;
        on_run e.value ~insns:n;
        if ok then Some (e.rank, e.value) else scan rest
      end
  in
  let result = scan matched in
  ( result,
    {
      probes = !probes;
      hash_words = !hash_words;
      exact_accepts = !exact_accepts;
      candidates_run = !candidates_run;
      insns = !insns;
    } )

(* {1 Inspection} *)

type group_info = {
  offsets : int list;
  slots : int;
  members : int;
  exact_members : int;
}

type info = {
  filters : int;
  indexed : int;
  residual : int;
  residual_unbounded : int;
  residual_no_chain : int;
  residual_excluded : int;
  never_accepts : int;
  shadowed : int;
  max_prefix_depth : int;
  groups : group_info list;
}

let info t =
  let decisions = decisions t in
  let count pred = List.length (List.filter (fun (_, _, d) -> pred d) decisions) in
  let groups =
    List.map
      (fun (g : _ group) ->
        let members, exact_members =
          Hashtbl.fold
            (fun _ slot (m, e) ->
              ( m + List.length slot.kept,
                e + List.length (List.filter (fun en -> en.exact) slot.kept) ))
            g.slots (0, 0)
        in
        {
          offsets = g.signature;
          slots = Hashtbl.length g.slots;
          members;
          exact_members;
        })
      t.groups
  in
  {
    filters = size t;
    indexed = count (function Indexed _ -> true | _ -> false);
    residual = List.length t.residual;
    residual_unbounded = count (function Residual `Unbounded -> true | _ -> false);
    residual_no_chain = count (function Residual `No_chain -> true | _ -> false);
    residual_excluded = count (function Residual `Excluded -> true | _ -> false);
    never_accepts = count (function Never_accepts -> true | _ -> false);
    shadowed = count (function Shadowed _ -> true | _ -> false);
    max_prefix_depth =
      List.fold_left (fun acc g -> max acc (List.length g.offsets)) 0 groups;
    groups;
  }

let pp_offsets ppf offsets =
  Format.fprintf ppf "[%s]" (String.concat " " (List.map string_of_int offsets))

let pp_decision ppf = function
  | Indexed { offsets; exact } ->
    Format.fprintf ppf "indexed on words %a%s" pp_offsets offsets
      (if exact then ", exact" else "")
  | Shadowed { by } -> Format.fprintf ppf "shadowed by the entry at rank %d" by
  | Residual `Unbounded -> Format.fprintf ppf "residual (unbounded read set)"
  | Residual `No_chain -> Format.fprintf ppf "residual (no leading guard chain)"
  | Residual `Excluded -> Format.fprintf ppf "residual (excluded: copy-all or tap)"
  | Never_accepts -> Format.fprintf ppf "dropped (can never accept)"

let pp_info ppf i =
  Format.fprintf ppf
    "dispatch automaton: %d filters, %d indexed in %d group(s), %d residual, \
     %d shadowed, %d never-accept@."
    i.filters i.indexed (List.length i.groups) i.residual i.shadowed
    i.never_accepts;
  Format.fprintf ppf "  shared prefix depth: %d word(s) max@." i.max_prefix_depth;
  if i.residual > 0 then
    Format.fprintf ppf
      "  residual reasons: %d unbounded read set, %d no guard chain, %d excluded@."
      i.residual_unbounded i.residual_no_chain i.residual_excluded;
  List.iter
    (fun g ->
      Format.fprintf ppf "  group %a: %d member(s) (%d exact) in %d slot(s)@."
        pp_offsets g.offsets g.members g.exact_members g.slots)
    i.groups
