module Packet = Pf_pkt.Packet

type t = {
  validated : Validate.t;
  ir : Ir.t;
  report : Regopt.report;
  regs : int array;
      (* Scratch register file reused across runs; safe because filters run
         sequentially on the (simulated) kernel path, never concurrently. *)
}

let make validated (ir, report) =
  { validated; ir; report; regs = Array.make (max 1 ir.Ir.reg_count) 0 }

let compile validated = make validated (Regopt.optimize validated)

let compile_certified ~memo validated =
  let compiled, certification =
    Regopt.certify ~memo validated (Regopt.optimize validated)
  in
  (make validated compiled, certification)

let compile_super ?equiv_budget ?budget ?seed ?memo validated =
  let compiled, certification, outcome =
    Regopt.optimize_superopt ?equiv_budget ?budget ?seed ?memo validated
  in
  (make validated compiled, certification, outcome)

let validated t = t.validated
let ir t = t.ir
let report t = t.report
let priority t = Program.priority (Validate.program t.validated)

exception Done of bool * int

let run_counted t packet =
  let words = Packet.word_count packet in
  let regs = t.regs in
  let value = function Ir.Reg r -> regs.(r) | Ir.Imm v -> v in
  let instrs = t.ir.Ir.instrs in
  let n = Array.length instrs in
  try
    for i = 0 to n - 1 do
      match instrs.(i) with
      | Ir.Load { dst; word } ->
        if word >= words then raise (Done (false, i + 1));
        regs.(dst) <- Packet.word packet word
      | Ir.Loadind { dst; idx } ->
        let idx = value idx in
        if idx >= words then raise (Done (false, i + 1));
        regs.(dst) <- Packet.word packet idx
      | Ir.Binop { dst; op; a; b } ->
        (* Only [apply_fault] is possible negatively: short-circuit
           operators lower to [Tcond], never to [Binop]. *)
        let r = Op.apply_int op ~t2:(value a) ~t1:(value b) in
        if r >= 0 then regs.(dst) <- r else raise (Done (false, i + 1))
      | Ir.Tcond { cond; a; b; verdict } ->
        let eq = value a = value b in
        let fires = match cond with Ir.Ceq -> eq | Ir.Cne -> not eq in
        if fires then raise (Done (verdict, i + 1))
    done;
    let accept =
      match t.ir.Ir.terminator with
      | Ir.Halt v -> v
      | Ir.Accept_if o -> value o <> 0
    in
    (accept, n)
  with Done (accept, executed) -> (accept, executed)

let run t packet = fst (run_counted t packet)
