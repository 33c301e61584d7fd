module Packet = Pf_pkt.Packet
open Pf_filter

(* Greedy minimizer: repeatedly apply the cheapest structural reductions that
   keep the failure alive, until a whole round makes no progress (or the
   check budget runs out). Every candidate is strictly smaller by a
   well-founded measure (fewer instructions, smaller literals/offsets, fewer
   packet bytes, fewer nonzero bytes), so each phase terminates. *)

let remove_nth n lst = List.filteri (fun i _ -> i <> n) lst

let simpler_insns (insn : Insn.t) =
  let actions =
    match insn.Insn.action with
    | Action.Pushlit v ->
      [ Action.Pushzero; Action.Pushone ] @ (if v > 1 then [ Action.Pushlit (v / 2) ] else [])
    | Action.Pushword 0 -> [ Action.Pushzero ]
    | Action.Pushword i -> [ Action.Pushzero; Action.Pushword 0; Action.Pushword (i / 2) ]
    | Action.Pushind -> [ Action.Pushzero ]
    | Action.Pushffff | Action.Pushff00 | Action.Push00ff ->
      [ Action.Pushzero; Action.Pushone ]
    | Action.Pushone -> [ Action.Pushzero ]
    | Action.Pushzero | Action.Nopush -> []
  in
  (if insn.Insn.op <> Op.Nop then [ Insn.make insn.Insn.action ] else [])
  @ List.map (fun a -> Insn.make ~op:insn.Insn.op a) actions

let packet_candidates pkt =
  let len = Packet.length pkt in
  let truncations =
    [ 0; len / 2; len - 2; len - 1 ]
    |> List.filter (fun l -> l >= 0 && l < len)
    |> List.sort_uniq compare
    |> List.map (fun l -> Packet.sub pkt ~pos:0 ~len:l)
  in
  let zeroed = ref [] in
  for i = len - 1 downto 0 do
    if Packet.byte pkt i <> 0 then begin
      let b = Packet.to_bytes pkt in
      Bytes.set_uint8 b i 0;
      zeroed := Packet.of_bytes b :: !zeroed
    end
  done;
  truncations @ !zeroed

let minimize ?(max_checks = 4000) ~keep program packet =
  let checks = ref 0 in
  let try_ p pkt =
    !checks < max_checks
    && begin
         incr checks;
         keep p pkt
       end
  in
  let prog = ref program in
  let pkt = ref packet in
  let changed = ref true in
  while !changed && !checks < max_checks do
    changed := false;
    (* Phase 1: drop whole instructions, scanning from the end so indices
       before the scan point stay valid. *)
    let rec drop () =
      let insns = Program.insns !prog in
      let rec at i =
        if i >= 0 then begin
          let cand = Program.v ~priority:(Program.priority !prog) (remove_nth i insns) in
          if try_ cand !pkt then begin
            prog := cand;
            changed := true;
            drop ()
          end
          else at (i - 1)
        end
      in
      at (List.length insns - 1)
    in
    drop ();
    (* Phase 2: simplify instructions in place (drop the operator, shrink
       literals and word offsets toward zero). *)
    for i = 0 to Program.insn_count !prog - 1 do
      let rec improve () =
        let insns = Array.copy !prog.Program.insns in
        let here = insns.(i) in
        let rec try_cands = function
          | [] -> ()
          | cand_insn :: rest ->
            insns.(i) <- cand_insn;
            let cand = Program.v ~priority:(Program.priority !prog) (Array.to_list insns) in
            if try_ cand !pkt then begin
              prog := cand;
              changed := true;
              improve ()
            end
            else begin
              insns.(i) <- here;
              try_cands rest
            end
        in
        try_cands (simpler_insns here)
      in
      improve ()
    done;
    (* Phase 3: priority to zero. *)
    if Program.priority !prog <> 0 then begin
      let cand = Program.with_priority !prog 0 in
      if try_ cand !pkt then begin
        prog := cand;
        changed := true
      end
    end;
    (* Phase 4: shrink the packet — truncate, then zero bytes. *)
    let rec shrink_pkt () =
      match List.find_opt (fun c -> try_ !prog c) (packet_candidates !pkt) with
      | Some c ->
        pkt := c;
        changed := true;
        shrink_pkt ()
      | None -> ()
    in
    shrink_pkt ()
  done;
  (!prog, !pkt)
