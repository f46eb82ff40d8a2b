(** Shared plumbing for the experiment harness. *)

let scale =
  match Sys.getenv_opt "DOLX_BENCH_SCALE" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 1)
  | None -> 1

(** Positive integer override from the environment ([default] when
    unset or unparsable). *)
let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> (try max 1 (int_of_string s) with _ -> default)
  | None -> default

(** Float override from the environment, at least 0.5. *)
let env_float name default =
  match Sys.getenv_opt name with
  | Some s -> (try Float.max 0.5 (float_of_string s) with _ -> default)
  | None -> default

(** Median; the mean of the two middles for an even count, as
    [statistics.median] computes it in ci/check_bench.py. *)
let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(** Wall-clock the thunk; returns (result, best seconds over [reps]). *)
let time ?(reps = 3) f =
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt;
    result := Some r
  done;
  (Option.get !result, !best)

let header title =
  Printf.printf "\n== %s ==\n%!" title

(** Print an aligned table: first row is the column names. *)
let table rows =
  match rows with
  | [] -> ()
  | first :: _ ->
      let cols = List.length first in
      let widths = Array.make cols 0 in
      List.iter
        (fun row ->
          List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row)
        rows;
      List.iteri
        (fun ri row ->
          List.iteri
            (fun i cell ->
              Printf.printf "%s%s" cell (String.make (widths.(i) - String.length cell + 2) ' '))
            row;
          print_newline ();
          if ri = 0 then begin
            List.iteri (fun i _ -> Printf.printf "%s  " (String.make widths.(i) '-')) row;
            print_newline ()
          end)
        rows;
      flush stdout

let fmt_f = Printf.sprintf "%.3f"

let fmt_f2 = Printf.sprintf "%.2f"

let fmt_i = string_of_int

let fmt_bytes b =
  if b >= 1 lsl 20 then Printf.sprintf "%.2fMB" (float_of_int b /. 1048576.0)
  else if b >= 1024 then Printf.sprintf "%.1fKB" (float_of_int b /. 1024.0)
  else Printf.sprintf "%dB" b
