module Packet = Pf_pkt.Packet

let stack_size = 32

type error =
  | Stack_underflow of int
  | Stack_overflow of int
  | Bad_word_offset of { pc : int; index : int }
  | Division_by_zero of int

let pp_error ppf = function
  | Stack_underflow pc -> Format.fprintf ppf "stack underflow at pc %d" pc
  | Stack_overflow pc -> Format.fprintf ppf "stack overflow at pc %d" pc
  | Bad_word_offset { pc; index } ->
    Format.fprintf ppf "word offset %d beyond packet at pc %d" index pc
  | Division_by_zero pc -> Format.fprintf ppf "division by zero at pc %d" pc

type outcome = { accept : bool; insns_executed : int; error : error option }
type semantics = [ `Paper | `Bsd ]

exception Verdict of outcome

let run ?(semantics = `Paper) program packet =
  let insns = program.Program.insns in
  let n = Array.length insns in
  let words = Packet.word_count packet in
  let stack = Array.make stack_size 0 in
  let sp = ref 0 in
  let push pc v =
    if !sp >= stack_size then
      raise (Verdict { accept = false; insns_executed = pc + 1; error = Some (Stack_overflow pc) });
    stack.(!sp) <- v land 0xffff;
    incr sp
  in
  let pop pc =
    if !sp <= 0 then
      raise (Verdict { accept = false; insns_executed = pc + 1; error = Some (Stack_underflow pc) });
    decr sp;
    stack.(!sp)
  in
  let packet_word pc index =
    if index < 0 || index >= words then
      raise
        (Verdict
           { accept = false;
             insns_executed = pc + 1;
             error = Some (Bad_word_offset { pc; index }) })
    else Packet.word packet index
  in
  let step pc (insn : Insn.t) =
    (match insn.action with
    | Action.Nopush -> ()
    | Action.Pushlit v -> push pc v
    | Action.Pushzero -> push pc 0
    | Action.Pushone -> push pc 1
    | Action.Pushffff -> push pc 0xffff
    | Action.Pushff00 -> push pc 0xff00
    | Action.Push00ff -> push pc 0x00ff
    | Action.Pushword i -> push pc (packet_word pc i)
    | Action.Pushind ->
      let index = pop pc in
      push pc (packet_word pc index));
    match insn.op with
    | Op.Nop -> ()
    | op ->
      let t1 = pop pc in
      let t2 = pop pc in
      (* [Op.apply_int], not [Op.apply]: a [Push] would allocate on every
         operator. *)
      let r = Op.apply_int op ~t2 ~t1 in
      if r >= 0 then (
        match (semantics, Op.is_short_circuit op) with
        | `Bsd, true -> ()
        | (`Paper | `Bsd), _ -> push pc r)
      else if r = Op.apply_fault then
        raise
          (Verdict
             { accept = false; insns_executed = pc + 1; error = Some (Division_by_zero pc) })
      else
        raise (Verdict { accept = r = Op.apply_accept; insns_executed = pc + 1; error = None })
  in
  try
    for pc = 0 to n - 1 do
      step pc insns.(pc)
    done;
    (* Program exhausted: an empty stack accepts (the zero-length monitor
       filter); otherwise the top of stack decides. *)
    let accept = !sp = 0 || stack.(!sp - 1) <> 0 in
    { accept; insns_executed = n; error = None }
  with Verdict outcome -> outcome

let accepts ?semantics program packet = (run ?semantics program packet).accept
