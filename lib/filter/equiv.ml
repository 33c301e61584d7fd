module Packet = Pf_pkt.Packet

type side = Prog of Validate.t | Ir_prog of Ir.t

type verdict = Proved_equal | Counterexample of Packet.t | Unknown

type reason =
  | Path_budget of [ `Left | `Right ]
  | Pair_budget
  | Unsolved of int
  | Spurious of int

type report = {
  verdict : verdict;
  paths_left : int;
  paths_right : int;
  pairs_checked : int;
  reasons : reason list;
}

let default_budget = Symex.default_budget
let default_pair_budget = 4096

(* Concrete IR execution lives in [Ir.exec] (mirroring [Regvm.run_counted];
   Regvm itself cannot be called here because its compiler depends on
   Regopt, which uses this module for certification). *)
let run_side side packet =
  match side with
  | Prog v -> Interp.accepts ~semantics:`Paper (Validate.program v) packet
  | Ir_prog ir -> Ir.exec ir packet

let symex ctx budget = function
  | Prog v -> Symex.run ~budget ctx v
  | Ir_prog ir -> Symex.run_ir ~budget ctx ir

(* Are two completed outcomes structurally identical? Both were built in
   the same context with deterministic traversal, so identical filters
   yield identical path lists — this keeps [check p p] linear in the
   number of paths instead of quadratic. *)
let structurally_equal (a : Symex.outcome) (b : Symex.outcome) =
  a.Symex.complete && b.Symex.complete
  && List.length a.Symex.paths = List.length b.Symex.paths
  && List.for_all2
       (fun (pa : Symex.path) (pb : Symex.path) ->
         pa.Symex.accept = pb.Symex.accept
         && Symex.equal_cond pa.Symex.cond pb.Symex.cond)
       a.Symex.paths b.Symex.paths

exception Witness of Packet.t
exception Pairs_exhausted

(* Run [f] on every pair of paths drawn from the two outcomes whose
   verdicts satisfy [select], counting against [pair_budget]. *)
let iter_pairs ~pair_budget ~select ~count oa ob f =
  List.iter
    (fun (pa : Symex.path) ->
      List.iter
        (fun (pb : Symex.path) ->
          if select pa.Symex.accept pb.Symex.accept then begin
            if !count >= pair_budget then raise Pairs_exhausted;
            incr count;
            f pa pb
          end)
        ob.Symex.paths)
    oa.Symex.paths

let check ?(budget = default_budget) ?(pair_budget = default_pair_budget) left
    right =
  let ctx = Symex.Ctx.create () in
  let oa = symex ctx budget left and ob = symex ctx budget right in
  let paths_left = List.length oa.Symex.paths
  and paths_right = List.length ob.Symex.paths in
  let base_reasons =
    (if oa.Symex.complete then [] else [ Path_budget `Left ])
    @ if ob.Symex.complete then [] else [ Path_budget `Right ]
  in
  if base_reasons = [] && structurally_equal oa ob then
    { verdict = Proved_equal; paths_left; paths_right; pairs_checked = 0;
      reasons = [] }
  else begin
    let count = ref 0 and unsolved = ref 0 and spurious = ref 0 in
    let pair_budget_hit = ref false in
    let verdict =
      try
        iter_pairs ~pair_budget ~select:(fun a b -> a <> b) ~count oa ob
          (fun pa pb ->
            match Symex.conj pa.Symex.cond pb.Symex.cond with
            | None -> ()
            | Some c -> (
                match Symex.solve c with
                | `Unsat -> ()
                | `Unknown -> incr unsolved
                | `Sat pkt ->
                    (* Confirm before believing the solver: only a packet
                       the two filters actually disagree on counts. *)
                    if run_side left pkt <> run_side right pkt then
                      raise (Witness pkt)
                    else incr spurious));
        if
          base_reasons = [] && !unsolved = 0 && !spurious = 0
          && not !pair_budget_hit
        then Proved_equal
        else Unknown
      with
      | Witness pkt -> Counterexample pkt
      | Pairs_exhausted ->
          pair_budget_hit := true;
          Unknown
    in
    let reasons =
      match verdict with
      | Proved_equal | Counterexample _ -> []
      | Unknown ->
          base_reasons
          @ (if !pair_budget_hit then [ Pair_budget ] else [])
          @ (if !unsolved > 0 then [ Unsolved !unsolved ] else [])
          @ if !spurious > 0 then [ Spurious !spurious ] else []
    in
    { verdict; paths_left; paths_right; pairs_checked = !count; reasons }
  end

let check_programs ?budget ?pair_budget va vb =
  check ?budget ?pair_budget (Prog va) (Prog vb)

let check_ir ?budget ?pair_budget va ir =
  check ?budget ?pair_budget (Prog va) (Ir_prog ir)

let relate ?(budget = default_budget) ?(pair_budget = default_pair_budget) va
    vb =
  let ctx = Symex.Ctx.create () in
  let oa = Symex.run ~budget ctx va and ob = Symex.run ~budget ctx vb in
  if not (oa.Symex.complete && ob.Symex.complete) then Analysis.Unknown
  else begin
    (* Disjoint: every accept/accept pair refuted. *)
    let count = ref 0 in
    let disjoint =
      try
        let ok = ref true in
        iter_pairs ~pair_budget ~select:(fun a b -> a && b) ~count oa ob
          (fun pa pb ->
            match Symex.conj pa.Symex.cond pb.Symex.cond with
            | None -> ()
            | Some c -> if Symex.solve c <> `Unsat then ok := false);
        !ok
      with Pairs_exhausted -> false
    in
    if disjoint then Analysis.Disjoint
    else
      let r = check ~budget ~pair_budget (Prog va) (Prog vb) in
      match r.verdict with
      | Proved_equal -> Analysis.Equivalent
      | Counterexample _ | Unknown -> Analysis.Unknown
  end

(* One memo table for every symbolic-equivalence verdict: relations (the
   dispatch automaton and the firewall lint) and full check reports (the
   superoptimizer, which re-proposes structurally identical candidates all
   the time). Keys are the encoded sides plus the budgets, so one table can
   serve callers with different budgets without confusing their answers;
   sides are tagged so a stack program and an IR program with colliding
   encodings stay distinct. *)
module Memo = struct
  type t = {
    relations : (int list * int list * int * int, Analysis.relation) Hashtbl.t;
    checks : (int list * int list * int * int, report) Hashtbl.t;
    shapes : (string, bool) Hashtbl.t; (* see [shape_key] *)
    mutable check_hits : int;
    mutable shape_hits : int;
  }

  let create () =
    { relations = Hashtbl.create 16; checks = Hashtbl.create 64;
      shapes = Hashtbl.create 16; check_hits = 0; shape_hits = 0 }

  let size t =
    Hashtbl.length t.relations + Hashtbl.length t.checks + Hashtbl.length t.shapes

  let check_hits t = t.check_hits
  let shape_hits t = t.shape_hits
end

let encode_side = function
  | Prog v -> 0 :: Program.encode (Validate.program v)
  | Ir_prog ir -> 1 :: Ir.encode ir

let relate_memo ?(budget = default_budget)
    ?(pair_budget = default_pair_budget) (memo : Memo.t) va vb =
  match Analysis.relate va vb with
  | Analysis.Unknown -> (
      let key =
        ( Program.encode (Validate.program va),
          Program.encode (Validate.program vb),
          budget,
          pair_budget )
      in
      match Hashtbl.find_opt memo.Memo.relations key with
      | Some r -> r
      | None ->
          let r = relate ~budget ~pair_budget va vb in
          Hashtbl.add memo.Memo.relations key r;
          r)
  | r -> r

let check_memo ?(budget = default_budget)
    ?(pair_budget = default_pair_budget) (memo : Memo.t) left right =
  let key = (encode_side left, encode_side right, budget, pair_budget) in
  match Hashtbl.find_opt memo.Memo.checks key with
  | Some r ->
      memo.Memo.check_hits <- memo.Memo.check_hits + 1;
      r
  | None ->
      let r = check ~budget ~pair_budget left right in
      Hashtbl.add memo.Memo.checks key r;
      r

type certification =
  | Certified
  | Refuted of Packet.t
  | Uncertified of string

let pp_verdict ppf = function
  | Proved_equal -> Format.pp_print_string ppf "proved equal"
  | Counterexample p -> Format.fprintf ppf "counterexample %a" Packet.pp_hex p
  | Unknown -> Format.pp_print_string ppf "unknown"

let pp_reason ppf = function
  | Path_budget side ->
      Format.fprintf ppf "path budget exhausted on the %s side"
        (match side with `Left -> "left" | `Right -> "right")
  | Pair_budget -> Format.pp_print_string ppf "path-pair budget exhausted"
  | Unsolved n -> Format.fprintf ppf "%d path pair(s) undecided" n
  | Spurious n ->
      Format.fprintf ppf "%d synthesized packet(s) not confirmed" n

let pp_reasons ppf = function
  | [] -> Format.pp_print_string ppf "no obstruction recorded"
  | reasons ->
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
        pp_reason ppf reasons

let pp_report ppf r =
  Format.fprintf ppf "%a (%d vs %d paths, %d differing pairs checked"
    pp_verdict r.verdict r.paths_left r.paths_right r.pairs_checked;
  (match r.reasons with
  | [] -> ()
  | reasons -> Format.fprintf ppf "; %a" pp_reasons reasons);
  Format.pp_print_string ppf ")"

let certification_of_report r =
  match r.verdict with
  | Proved_equal -> Certified
  | Counterexample p -> Refuted p
  | Unknown -> Uncertified (Format.asprintf "%a" pp_reasons r.reasons)

let pp_certification ppf = function
  | Certified -> Format.pp_print_string ppf "certified"
  | Refuted p -> Format.fprintf ppf "refuted by %a" Packet.pp_hex p
  | Uncertified why -> Format.fprintf ppf "uncertified (%s)" why

(* {1 Certifying a compile once per filter shape}

   The shape of a program is its instruction sequence with every literal
   replaced by a parameter: distinct literal values, numbered in order of
   first occurrence, so equal literals share one. The template of a
   compile is its IR with every immediate equal to a literal replaced by
   that literal's parameter. Instantiated at the program's own literals,
   shape and template give back exactly the program and its IR, so a proof
   that they agree on every packet for every parameter assignment
   certifies this compile, and every other compile whose program has that
   shape and whose IR has that template. A compile that depends on a
   literal's value (a fold, a mask rewrite, an immediate that only
   coincides with a literal) gets a different template or one that is not
   equal for all values; either way the per-program check decides. *)

(* Distinct literal values in order of first occurrence, numbered from 0.
   These run on every install, so lookups compare ints and allocate
   nothing: [param_index] is -1 for a value that is no literal. *)
let rec param_index (x : int) = function
  | [] -> -1
  | (y, k) :: rest -> if x = y then k else param_index x rest

let params_of v =
  Array.fold_left
    (fun params (insn : Insn.t) ->
      match insn.Insn.action with
      | Action.Pushlit x when param_index x params < 0 ->
          (x, List.length params) :: params
      | _ -> params)
    [] (Validate.program v).Program.insns

let template params ir =
  Ir.map_operands
    (fun (o : Ir.operand) ->
      match o with
      | Ir.Imm x ->
          let k = param_index x params in
          if k < 0 then o else Ir.Imm (Symex.param_base + k)
      | Ir.Reg _ -> o)
    ir

(* The memo key: the shape and the template, written straight into one
   string of 16-bit words (an install pays for this on every memo hit, so
   the template is never built here). Instruction words carry their action
   and operator codes, as on the wire; the IR's words are tagged by kind.
   Every field's extent follows from the words before it, so the key
   parses back uniquely. Budgets stay out of it: a stored [true] is a
   proof under any budget, and a stored [false] only sends the install to
   the per-program check. *)
let put buf pos x =
  Bytes.set_uint16_le buf pos x;
  pos + 2

let put_operand params buf pos (o : Ir.operand) =
  match o with
  | Ir.Reg r -> put buf (put buf pos 0) r
  | Ir.Imm x ->
      let k = param_index x params in
      if k < 0 then put buf (put buf pos 1) x else put buf (put buf pos 2) k

let put_instr params buf pos (i : Ir.instr) =
  match i with
  | Ir.Load { dst; word } -> put buf (put buf (put buf pos 3) dst) word
  | Ir.Loadind { dst; idx } -> put_operand params buf (put buf (put buf pos 4) dst) idx
  | Ir.Binop { dst; op; a; b } ->
      let pos = put buf (put buf (put buf pos 5) dst) (Op.code op) in
      put_operand params buf (put_operand params buf pos a) b
  | Ir.Tcond { cond; a; b; verdict } ->
      let tag = 6 + (if cond = Ir.Ceq then 0 else 2) + Bool.to_int verdict in
      put_operand params buf (put_operand params buf (put buf pos tag) a) b

let shape_key params v (ir : Ir.t) =
  let insns = (Validate.program v).Program.insns in
  (* 3 counts, at most 2 words per instruction, 7 per IR instruction and
     3 for the terminator *)
  let buf =
    Bytes.create (2 * (6 + (2 * Array.length insns) + (7 * Array.length ir.Ir.instrs)))
  in
  let pos = put buf 0 (Array.length insns) in
  let pos =
    Array.fold_left
      (fun pos (insn : Insn.t) ->
        let pos =
          put buf pos (Action.code insn.Insn.action lor (Op.code insn.Insn.op lsl 10))
        in
        match insn.Insn.action with
        | Action.Pushlit x -> put buf pos (param_index x params)
        | _ -> pos)
      pos insns
  in
  let pos = put buf pos ir.Ir.reg_count in
  let pos = put buf pos (Array.length ir.Ir.instrs) in
  let pos = Array.fold_left (put_instr params buf) pos ir.Ir.instrs in
  let pos =
    match ir.Ir.terminator with
    | Ir.Halt v -> put buf pos (Bool.to_int v)
    | Ir.Accept_if o -> put_operand params buf (put buf pos 2) o
  in
  Bytes.sub_string buf 0 pos

(* Only proofs count here: a solved pair over parameters is no packet. *)
let proves_template ~budget ~pair_budget v params tmpl =
  let ctx = Symex.Ctx.create () in
  let lit x = Symex.param_base + param_index x params in
  let oa = Symex.run ~budget ~lit ctx v and ob = Symex.run_ir ~budget ctx tmpl in
  structurally_equal oa ob
  || oa.Symex.complete && ob.Symex.complete
     &&
     try
       iter_pairs ~pair_budget ~select:(fun a b -> a <> b) ~count:(ref 0) oa ob
         (fun pa pb ->
           match Symex.conj pa.Symex.cond pb.Symex.cond with
           | None -> ()
           | Some c -> if not (Symex.unsat c) then raise Exit);
       true
     with Exit | Pairs_exhausted -> false

let shape_proves ?(budget = default_budget) ?(pair_budget = default_pair_budget) v
    ir =
  let params = params_of v in
  proves_template ~budget ~pair_budget v params (template params ir)

let certify_ir ?(budget = default_budget) ?(pair_budget = default_pair_budget)
    (memo : Memo.t) v ir =
  let params = params_of v in
  let key = shape_key params v ir in
  let proved =
    match Hashtbl.find_opt memo.Memo.shapes key with
    | Some proved ->
        memo.Memo.shape_hits <- memo.Memo.shape_hits + 1;
        proved
    | None ->
        let proved =
          proves_template ~budget ~pair_budget v params (template params ir)
        in
        Hashtbl.add memo.Memo.shapes key proved;
        proved
  in
  if proved then Certified
  else certification_of_report (check_ir ~budget ~pair_budget v ir)
