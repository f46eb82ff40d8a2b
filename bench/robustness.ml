(** Robustness overhead: what read-time page-checksum verification costs
    on the secure query path.  A/B over the benchmark queries with
    [Disk.set_verify_reads] on/off on the same store — reports simulated
    I/O time with and without verification, the CRC share, and wall
    clock.  Acceptance: CRC overhead < 10% of simulated I/O time. *)

module Tree = Dolx_xml.Tree
module Dol = Dolx_core.Dol
module Store = Dolx_core.Secure_store
module Update = Dolx_core.Update
module Db_file = Dolx_core.Db_file
module Disk = Dolx_storage.Disk
module Buffer_pool = Dolx_storage.Buffer_pool
module Engine = Dolx_nok.Engine
module Tag_index = Dolx_index.Tag_index
module Prng = Dolx_util.Prng
module Xmark = Dolx_workload.Xmark
module Synth_acl = Dolx_workload.Synth_acl
open Bench_common

let setup () =
  let n_nodes = 50_000 * scale in
  let tree = Xmark.generate_nodes ~seed:41 n_nodes in
  let params =
    { Synth_acl.propagation_ratio = 0.3; accessibility_ratio = 0.5;
      sibling_copy_p = 0.5 }
  in
  let bools = Synth_acl.generate_bool tree ~params (Prng.create 17) in
  bools.(0) <- true;
  let dol = Dol.of_bool_array bools in
  (* run index off: CRC share is measured on the page-read path, which
     the run index would partially elide *)
  let store =
    Store.create ~run_index:false ~path_summary:false ~page_size:4096 ~pool_capacity:128 tree dol
  in
  let index = Tag_index.build tree in
  (tree, index, store)

let run_once store index pattern =
  Buffer_pool.clear (Store.pool store);
  Disk.reset_stats (Store.disk store);
  let t0 = Unix.gettimeofday () in
  ignore (Engine.run store index pattern (Engine.Secure 0));
  let wall = Unix.gettimeofday () -. t0 in
  (Disk.simulated_us (Store.disk store), Disk.crc_us (Store.disk store), wall)

let best_of ~reps store index pattern =
  let sim = ref infinity and crc = ref 0.0 and wall = ref infinity in
  for _ = 1 to reps do
    let s, c, w = run_once store index pattern in
    if s +. w < !sim +. !wall then begin
      sim := s;
      crc := c;
      wall := w
    end
  done;
  (!sim, !crc, !wall)

let run () =
  header "Checksum overhead on the secure query path (verify_reads A/B)";
  let tree, index, store = setup () in
  Printf.printf "XMark instance: %d nodes, page size 4096, pool 128\n"
    (Tree.size tree);
  let disk = Store.disk store in
  let totals = ref (0.0, 0.0, 0.0) in
  let rows =
    [ "query"; "sim I/O off (ms)"; "sim I/O on (ms)"; "crc (ms)";
      "crc share"; "wall delta (ms)" ]
    :: List.map
         (fun (qname, q) ->
           let pattern = Dolx_nok.Xpath.parse q in
           Disk.set_verify_reads disk false;
           let sim_off, _, wall_off = best_of ~reps:3 store index pattern in
           Disk.set_verify_reads disk true;
           let sim_on, crc, wall_on = best_of ~reps:3 store index pattern in
           let so, sn, c = !totals in
           totals := (so +. sim_off, sn +. sim_on, c +. crc);
           [
             qname;
             fmt_f (sim_off /. 1.0e3);
             fmt_f (sim_on /. 1.0e3);
             fmt_f (crc /. 1.0e3);
             Printf.sprintf "%.2f%%" (100.0 *. crc /. sim_on);
             fmt_f ((wall_on -. wall_off) *. 1.0e3);
           ])
         Xmark.queries
  in
  table rows;
  let sim_off, sim_on, crc = !totals in
  let share = 100.0 *. crc /. sim_on in
  Printf.printf
    "total: sim I/O %.3f ms unverified vs %.3f ms verified; CRC %.3f ms = %.2f%% of verified I/O time (acceptance: < 10%%)\n"
    (sim_off /. 1.0e3) (sim_on /. 1.0e3) (crc /. 1.0e3) share;
  (* durable-update cost: journaled commit vs in-place update *)
  header "Durable (journaled) update cost";
  let base = Db_file.to_bytes store in
  let rng = Prng.create 99 in
  let n = Tree.size tree in
  let reps = 20 in
  let t0 = Unix.gettimeofday () in
  let img = ref base in
  for _ = 1 to reps do
    let v = Prng.int rng n in
    img :=
      Update.durable_node_update ~base:!img ~subject:0
        ~grant:(Prng.bool rng ~p:0.5) v
  done;
  let t_durable = (Unix.gettimeofday () -. t0) /. float_of_int reps in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    let v = Prng.int rng n in
    ignore
      (Update.set_node_accessibility store ~subject:0
         ~grant:(Prng.bool rng ~p:0.5) v)
  done;
  let t_inplace = (Unix.gettimeofday () -. t0) /. float_of_int reps in
  table
    [
      [ "update"; "avg wall (ms)" ];
      [ "in-place node update"; fmt_f (t_inplace *. 1.0e3) ];
      [ "journaled durable node update"; fmt_f (t_durable *. 1.0e3) ];
    ]
