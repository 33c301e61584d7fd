module Packet = Pf_pkt.Packet

type t = {
  validated : Validate.t;
  analysis : Analysis.t;
  insns : Insn.t array;
  stack : int array;
      (* Scratch stack reused across runs; safe because filters are applied
         sequentially on the (simulated) kernel path, never concurrently. *)
}

let compile validated =
  { validated;
    analysis = Analysis.analyze validated;
    insns = (Validate.program validated).Program.insns;
    stack = Array.make Interp.stack_size 0;
  }

let validated t = t.validated
let program t = Validate.program t.validated
let priority t = Program.priority (program t)
let analysis t = t.analysis

let runs_checkless t packet =
  Packet.word_count packet >= t.analysis.Analysis.safe_packet_words

let run_packed t packet =
  let words = Packet.word_count packet in
  (* When the packet covers every constant offset the program can touch, the
     loop below performs no packet bounds checks at all. A shorter packet
     cannot simply be rejected up front: a short-circuit operator might
     terminate the program (accepting!) before the out-of-range push is
     reached, so such packets keep a cheap per-push check to stay exactly
     equivalent to the checked interpreter. *)
  let need_check = words < t.validated.Validate.min_packet_words in
  (* Indirect pushes normally stay dynamically checked (the index comes off
     the stack), but when the packet meets the analysis' proven bound on
     every access — constant or data-flow-derived — even those checks are
     skipped and the whole run is checkless. *)
  let need_ind_check = words < t.analysis.Analysis.safe_packet_words in
  let stack = t.stack and insns = t.insns in
  let n = Array.length insns in
  let sp = ref 0 and pc = ref 0 in
  (* The packed outcome once the program terminates early; -1 while it
     runs. [pc] already counts the terminating instruction. *)
  let outcome = ref (-1) in
  while !outcome < 0 && !pc < n do
    let insn = insns.(!pc) in
    incr pc;
    (match insn.Insn.action with
    | Action.Nopush -> ()
    | Action.Pushlit v ->
      stack.(!sp) <- v;
      incr sp
    | Action.Pushzero ->
      stack.(!sp) <- 0;
      incr sp
    | Action.Pushone ->
      stack.(!sp) <- 1;
      incr sp
    | Action.Pushffff ->
      stack.(!sp) <- 0xffff;
      incr sp
    | Action.Pushff00 ->
      stack.(!sp) <- 0xff00;
      incr sp
    | Action.Push00ff ->
      stack.(!sp) <- 0x00ff;
      incr sp
    | Action.Pushword i ->
      if need_check && i >= words then outcome := !pc lsl 1
      else begin
        stack.(!sp) <- Packet.word packet i;
        incr sp
      end
    | Action.Pushind ->
      let index = stack.(!sp - 1) in
      if need_ind_check && index >= words then outcome := !pc lsl 1
      else stack.(!sp - 1) <- Packet.word packet index);
    if !outcome < 0 then
      match insn.Insn.op with
      | Op.Nop -> ()
      | op ->
        let t1 = stack.(!sp - 1) in
        let t2 = stack.(!sp - 2) in
        sp := !sp - 2;
        (* [Op.apply_int] keeps the ALU allocation-free: [Op.apply]'s
           [Push r] result boxed a fresh variant on every arithmetic
           instruction. A fault and a rejecting short-circuit both
           terminate rejecting, so the two negative sentinels besides
           [apply_accept] need no distinction here. *)
        let r = Op.apply_int op ~t2 ~t1 in
        if r >= 0 then begin
          stack.(!sp) <- r;
          incr sp
        end
        else outcome := (!pc lsl 1) lor Bool.to_int (r = Op.apply_accept)
  done;
  if !outcome >= 0 then !outcome
  else (n lsl 1) lor Bool.to_int (!sp = 0 || stack.(!sp - 1) <> 0)

let run_counted t packet =
  let packed = run_packed t packet in
  (packed land 1 = 1, packed lsr 1)

let run t packet = run_packed t packet land 1 = 1
