(* Streaming dissemination: construct the DOL in a single pass while the
   document streams in (paper §2: "a document order encoding of access
   rights can be constructed on-the-fly using a single pass"), then push
   per-subscriber secured views out — the selective-dissemination
   use-case from the paper's conclusion.

     dune exec examples/dissemination.exe
*)

module Tree = Dolx_xml.Tree
module Parser = Dolx_xml.Parser
module Serializer = Dolx_xml.Serializer
module Bitset = Dolx_util.Bitset
module Dol = Dolx_core.Dol
module Codebook = Dolx_core.Codebook
module Secure_view = Dolx_core.Secure_view
module Prng = Dolx_util.Prng
module Xmark = Dolx_workload.Xmark
module Synth_acl = Dolx_workload.Synth_acl

let n_subscribers = 8

let () =
  (* A feed document (a small auction site) arriving as a stream of SAX
     events.  Subscribers 0..3 are "premium" (two archetype profiles),
     4..7 are regional. *)
  let tree = Xmark.generate_nodes ~seed:2024 2_500 in
  let labeling =
    Synth_acl.generate_multi tree ~seed:7 ~n_subjects:n_subscribers
      ~n_archetypes:3 ()
  in
  (* --- one pass over the stream builds BOTH the DOL and the on-disk
     pages: the publisher never materializes the document --- *)
  let builder = Dol.Streaming.create ~width:n_subscribers in
  let disk = Dolx_storage.Disk.create ~page_size:1024 () in
  let pages = Dolx_storage.Nok_layout.stream disk in
  let control_chars = ref 0 in
  let rec stream v =
    (* each start-element consults the policy output for the node and may
       emit one "control character" (a transition code) into the stream
       and onto the current page *)
    let code = Dol.Streaming.push builder (Dolx_policy.Labeling.acl labeling v) in
    if code <> None then incr control_chars;
    Dolx_storage.Nok_layout.start_element pages ~tag:(Tree.tag tree v) ?code ();
    Tree.iter_children stream tree v;
    Dolx_storage.Nok_layout.end_element pages
  in
  stream Tree.root;
  let dol = Dol.Streaming.finish builder in
  let layout = Dolx_storage.Nok_layout.end_stream pages in
  Printf.printf
    "streamed %d elements; embedded %d access-control codes (%.2f%% of events) onto %d pages\n"
    (Tree.size tree) !control_chars
    (100.0 *. float_of_int !control_chars /. float_of_int (Tree.size tree))
    (Dolx_storage.Nok_layout.page_count layout);
  (* the streamed pages are immediately queryable *)
  let store = Dolx_core.Secure_store.assemble ~tree ~dol ~disk ~layout () in
  let index = Dolx_index.Tag_index.build tree in
  Printf.printf "secure query on the streamed store: subscriber 1 sees %d items\n"
    (Dolx_nok.Engine.count store index "//item" (Dolx_nok.Engine.Secure 1));
  Printf.printf "codebook: %d entries shared by %d subscribers (%d bytes)\n\n"
    (Codebook.count (Dol.codebook dol))
    n_subscribers (Dol.codebook_bytes dol);
  (* every subscriber may see the feed envelope itself: a per-subject
     single-node accessibility update on the root (§3.4) *)
  for s = 0 to n_subscribers - 1 do
    ignore (Dolx_core.Update.dol_set_node dol ~subject:s ~grant:true 0)
  done;
  (* --- fan the document out: one pruned copy per subscriber --- *)
  for s = 0 to n_subscribers - 1 do
    match Secure_view.view tree dol ~subject:s with
    | view ->
        let bytes = String.length (Serializer.to_string view) in
        Printf.printf "subscriber %d receives %5d of %d nodes (%5d bytes)\n" s
          (Tree.size view) (Tree.size tree) bytes
    | exception Secure_view.Root_inaccessible ->
        Printf.printf "subscriber %d receives nothing (root hidden)\n" s
  done;
  (* correlated subscribers share codes: show the three most common ACLs *)
  let usage = Hashtbl.create 16 in
  Array.iter
    (fun code ->
      Hashtbl.replace usage code (1 + Option.value ~default:0 (Hashtbl.find_opt usage code)))
    dol.Dol.trans_code;
  let top =
    Hashtbl.fold (fun c k acc -> (k, c) :: acc) usage []
    |> List.sort (fun a b -> compare b a)
  in
  Printf.printf "\nmost frequent access-control lists at transitions:\n";
  List.iteri
    (fun i (k, c) ->
      if i < 3 then
        Printf.printf "  %s used by %d transitions\n"
          (Bitset.to_string (Codebook.get (Dol.codebook dol) c))
          k)
    top
