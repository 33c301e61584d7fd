(* Print every drive's device stats and each device's counter views, for
   the stats golden. *)

open Pf_kernel
module Drives = Stats_drives

let print_views pf =
  let d = Pfdev.dispatch_stats pf in
  Format.printf "  %a@\n" Pfdev.pp_cache_stats (Pfdev.cache_stats pf);
  Format.printf
    "  dispatch: %d rebuilds, %d classifies, %d exact accepts, %d candidates, %d residual runs@\n"
    d.Pfdev.rebuilds d.Pfdev.classifies d.Pfdev.exact_accepts d.Pfdev.candidates_run
    d.Pfdev.residual_runs;
  Format.printf "  @[<v>%a@]@\n" Pfdev.pp_smp_stats (Pfdev.smp_stats pf)

let () =
  List.iter
    (fun (d : Drives.drive) ->
      Format.printf "== %s@\n" d.Drives.name;
      List.iter
        (fun (k, v) -> Format.printf "%-32s %d@\n" k v)
        (Pf_sim.Stats.pairs (Host.stats d.Drives.host));
      List.iteri
        (fun i pf ->
          Format.printf "-- device %d@\n" i;
          print_views pf)
        d.Drives.devices)
    (Drives.all ());
  Format.print_flush ()
