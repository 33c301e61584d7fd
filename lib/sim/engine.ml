(* Binary min-heap on (time, seq); a fresh seq per event makes the order of
   same-time events deterministic (FIFO in scheduling order). The heap is
   three parallel arrays, so scheduling a preallocated closure allocates
   nothing once they have grown, and a sift moves a hole along the path
   and writes each entry once instead of swapping boxed records. *)

type t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable runs : (unit -> unit) array;
  mutable size : int;
  mutable clock : Time.t;
  mutable next_seq : int;
  mutable processed : int;
}

let create () =
  { times = Array.make 64 0; seqs = Array.make 64 0; runs = Array.make 64 ignore;
    size = 0; clock = 0; next_seq = 0; processed = 0 }

let now t = t.clock
let pending t = t.size
let events_processed t = t.processed

let grow t =
  let extend a fill =
    let bigger = Array.make (2 * Array.length a) fill in
    Array.blit a 0 bigger 0 t.size;
    bigger
  in
  t.times <- extend t.times 0;
  t.seqs <- extend t.seqs 0;
  t.runs <- extend t.runs ignore

let schedule t ~at run =
  let time = if at < t.clock then t.clock else at in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if t.size = Array.length t.times then grow t;
  let times = t.times and seqs = t.seqs and runs = t.runs in
  (* Sift the hole up from the new leaf. The new seq exceeds every queued
     one, so only a strictly earlier time moves it past a parent. *)
  let i = ref t.size in
  t.size <- t.size + 1;
  while !i > 0 && time < times.((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    times.(!i) <- times.(parent);
    seqs.(!i) <- seqs.(parent);
    runs.(!i) <- runs.(parent);
    i := parent
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  runs.(!i) <- run

let schedule_after t delay run = schedule t ~at:(t.clock + delay) run

(* Take the root's closure, then sift the hole down from the root until
   the last entry fits in it. *)
let pop t =
  let times = t.times and seqs = t.seqs and runs = t.runs in
  let top = runs.(0) in
  let last = t.size - 1 in
  t.size <- last;
  let time = times.(last) and seq = seqs.(last) and run = runs.(last) in
  runs.(last) <- ignore;
  if last > 0 then begin
    let i = ref 0 in
    let sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= last then sifting := false
      else begin
        let r = l + 1 in
        let c =
          if r < last && (times.(r) < times.(l) || (times.(r) = times.(l) && seqs.(r) < seqs.(l)))
          then r
          else l
        in
        if times.(c) < time || (times.(c) = time && seqs.(c) < seq) then begin
          times.(!i) <- times.(c);
          seqs.(!i) <- seqs.(c);
          runs.(!i) <- runs.(c);
          i := c
        end
        else sifting := false
      end
    done;
    times.(!i) <- time;
    seqs.(!i) <- seq;
    runs.(!i) <- run
  end;
  top

let step t =
  let time = t.times.(0) in
  let run = pop t in
  t.clock <- time;
  t.processed <- t.processed + 1;
  run ()

let run ?until t =
  match until with
  | None ->
    while t.size > 0 do
      step t
    done
  | Some limit ->
    while t.size > 0 && t.times.(0) <= limit do
      step t
    done;
    if t.size > 0 || t.clock < limit then t.clock <- limit
