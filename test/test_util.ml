(* Unit and property tests for Hotpath_util: PRNG, Vec, Stats, Tablefmt. *)

module Prng = Hotpath_util.Prng
module Vec = Hotpath_util.Vec
module Stats = Hotpath_util.Stats
module Tablefmt = Hotpath_util.Tablefmt
module Pool = Hotpath_util.Pool
module Bqueue = Hotpath_util.Bqueue
module Crc32 = Hotpath_util.Crc32

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_splitmix64_reference () =
  (* The published splitmix64 outputs for state 0: the stream every seed
     derivation, workload and trace rests on. *)
  let t = Prng.create ~seed:0 in
  List.iter
    (fun expected -> Alcotest.(check int64) "splitmix64" expected (Prng.next_int64 t))
    [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL ]

let test_prng_determinism () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  Alcotest.(check bool) "different seeds differ" false
    (Prng.next_int64 a = Prng.next_int64 b)

let test_prng_copy_replays () =
  let a = Prng.create ~seed:7 in
  ignore (Prng.next_int64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy replays" (Prng.next_int64 a) (Prng.next_int64 b)

let test_prng_split_independent () =
  let a = Prng.create ~seed:7 in
  let b = Prng.split a in
  (* Not a statistical test; just check the streams are not identical. *)
  let same = ref true in
  for _ = 1 to 16 do
    if Prng.next_int64 a <> Prng.next_int64 b then same := false
  done;
  Alcotest.(check bool) "split streams differ" false !same

let test_prng_int_bounds () =
  let t = Prng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let v = Prng.int t ~bound:7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
  done

let test_prng_int_invalid () =
  let t = Prng.create ~seed:3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int t ~bound:0))

let test_prng_int_uniformish () =
  let t = Prng.create ~seed:11 in
  let counts = Array.make 4 0 in
  let n = 40_000 in
  for _ = 1 to n do
    let v = Prng.int t ~bound:4 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
       Alcotest.(check bool) "within 5% of uniform" true
         (abs (c - (n / 4)) < n / 20))
    counts

let test_prng_float_range () =
  let t = Prng.create ~seed:5 in
  for _ = 1 to 10_000 do
    let v = Prng.float t in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_prng_bool_extremes () =
  let t = Prng.create ~seed:5 in
  Alcotest.(check bool) "p=0" false (Prng.bool t ~p:0.0);
  Alcotest.(check bool) "p=1" true (Prng.bool t ~p:1.0)

let test_prng_bool_bias () =
  let t = Prng.create ~seed:13 in
  let n = 50_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Prng.bool t ~p:0.9 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "rate near 0.9" true (abs_float (rate -. 0.9) < 0.01)

let test_prng_pick () =
  let t = Prng.create ~seed:17 in
  let arr = [| "a"; "b"; "c" |] in
  for _ = 1 to 100 do
    let v = Prng.pick t arr in
    Alcotest.(check bool) "member" true (Array.mem v arr)
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Prng.pick: empty array") (fun () ->
      ignore (Prng.pick t [||]))

let test_prng_pick_weighted () =
  let t = Prng.create ~seed:19 in
  let weights = [| 0.0; 1.0; 3.0 |] in
  let counts = Array.make 3 0 in
  let n = 40_000 in
  for _ = 1 to n do
    let i = Prng.pick_weighted t ~weights in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero-weight never drawn" 0 counts.(0);
  let ratio = float_of_int counts.(2) /. float_of_int counts.(1) in
  Alcotest.(check bool) "3:1 ratio approx" true (abs_float (ratio -. 3.0) < 0.25)

let test_prng_pick_weighted_invalid () =
  let t = Prng.create ~seed:19 in
  Alcotest.check_raises "empty"
    (Invalid_argument "Prng.pick_weighted: empty weights") (fun () ->
      ignore (Prng.pick_weighted t ~weights:[||]));
  Alcotest.check_raises "negative"
    (Invalid_argument "Prng.pick_weighted: negative weight") (fun () ->
      ignore (Prng.pick_weighted t ~weights:[| 1.0; -1.0 |]));
  Alcotest.check_raises "zero sum"
    (Invalid_argument "Prng.pick_weighted: zero total weight") (fun () ->
      ignore (Prng.pick_weighted t ~weights:[| 0.0; 0.0 |]))

let test_prng_shuffle_permutation () =
  let t = Prng.create ~seed:23 in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle t arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

(* ------------------------------------------------------------------ *)
(* Vec                                                                 *)
(* ------------------------------------------------------------------ *)

let test_vec_push_get () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v (i * i)
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get 7" 49 (Vec.get v 7);
  Alcotest.(check int) "last" (99 * 99) (Vec.last v)

let test_vec_bounds () =
  let v = Vec.create () in
  Vec.push v 1;
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.get: index 1 out of bounds [0,1)")
    (fun () -> ignore (Vec.get v 1));
  Alcotest.check_raises "set oob"
    (Invalid_argument "Vec.set: index -1 out of bounds [0,1)") (fun () -> Vec.set v (-1) 0)

let test_vec_pop () =
  let v = Vec.create () in
  Vec.push v 1;
  Vec.push v 2;
  Alcotest.(check int) "pop" 2 (Vec.pop v);
  Alcotest.(check int) "pop" 1 (Vec.pop v);
  Alcotest.(check bool) "empty" true (Vec.is_empty v);
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop: empty") (fun () ->
      ignore (Vec.pop v))

let test_vec_clear_reuse () =
  let v = Vec.create () in
  for i = 0 to 9 do Vec.push v i done;
  Vec.clear v;
  Alcotest.(check int) "cleared" 0 (Vec.length v);
  Vec.push v 42;
  Alcotest.(check int) "reusable" 42 (Vec.get v 0)

let test_vec_conversions () =
  let v = Vec.of_array [| 3; 1; 4 |] in
  Alcotest.(check (list int)) "to_list" [ 3; 1; 4 ] (Vec.to_list v);
  Alcotest.(check (array int)) "to_array" [| 3; 1; 4 |] (Vec.to_array v);
  Alcotest.(check int) "fold" 8 (Vec.fold_left ( + ) 0 v);
  Alcotest.(check bool) "exists" true (Vec.exists (fun x -> x = 4) v);
  Alcotest.(check bool) "not exists" false (Vec.exists (fun x -> x = 5) v)

let test_vec_iteri () =
  let v = Vec.of_array [| 10; 20 |] in
  let acc = ref [] in
  Vec.iteri (fun i x -> acc := (i, x) :: !acc) v;
  Alcotest.(check (list (pair int int))) "iteri" [ (1, 20); (0, 10) ] !acc

let prop_vec_matches_list =
  QCheck.Test.make ~name:"vec push/to_list matches list building" ~count:200
    QCheck.(list int)
    (fun xs ->
       let v = Vec.create () in
       List.iter (Vec.push v) xs;
       Vec.to_list v = xs)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_mean () =
  check_float "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |]);
  check_float "empty" 0.0 (Stats.mean [||])

let test_stats_geomean () =
  check_float "geomean" 4.0 (Stats.geomean [| 2.0; 8.0 |]);
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Stats.geomean: non-positive value") (fun () ->
      ignore (Stats.geomean [| 1.0; 0.0 |]))

let test_stats_stddev () =
  check_float "constant" 0.0 (Stats.stddev [| 5.0; 5.0; 5.0 |]);
  check_float "known" 2.0 (Stats.stddev [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |])

let test_stats_percentile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "median" 3.0 (Stats.percentile xs ~p:50.0);
  check_float "min" 1.0 (Stats.percentile xs ~p:0.0);
  check_float "max" 5.0 (Stats.percentile xs ~p:100.0);
  check_float "interpolated" 1.5 (Stats.percentile [| 1.0; 2.0 |] ~p:50.0)

let test_stats_minmax_ratio () =
  check_float "min" 1.0 (Stats.minimum [| 3.0; 1.0; 2.0 |]);
  check_float "max" 3.0 (Stats.maximum [| 3.0; 1.0; 2.0 |]);
  check_float "ratio" 0.5 (Stats.ratio 1.0 2.0);
  check_float "ratio by zero" 0.0 (Stats.ratio 1.0 0.0);
  check_float "pct" 25.0 (Stats.pct 1.0 4.0);
  check_float "round" 3.14 (Stats.round_to 2 3.14159)

(* ------------------------------------------------------------------ *)
(* Tablefmt                                                            *)
(* ------------------------------------------------------------------ *)

let test_table_render () =
  let t =
    Tablefmt.create ~columns:[ ("name", Tablefmt.Left); ("count", Tablefmt.Right) ]
  in
  Tablefmt.add_row t [ "compress"; "230" ];
  Tablefmt.add_row t [ "gcc"; "36,738" ];
  let out = Tablefmt.render t in
  Alcotest.(check bool) "has header" true
    (String.length out > 0 && String.sub out 0 4 = "name");
  Alcotest.(check bool) "right-aligned count" true
    (let lines = String.split_on_char '\n' out in
     List.exists (fun l -> l = "compress     230") lines)

let test_table_width_mismatch () =
  let t = Tablefmt.create ~columns:[ ("a", Tablefmt.Left) ] in
  Alcotest.check_raises "bad width"
    (Invalid_argument "Tablefmt.add_row: expected 1 cells, got 2") (fun () ->
      Tablefmt.add_row t [ "x"; "y" ])

let test_table_csv () =
  let t = Tablefmt.create ~columns:[ ("a", Tablefmt.Left); ("b", Tablefmt.Left) ] in
  Tablefmt.add_row t [ "x,y"; "plain" ];
  Tablefmt.add_separator t;
  Tablefmt.add_row t [ "has \"quote\""; "z" ];
  let csv = Tablefmt.render_csv t in
  Alcotest.(check string) "csv escaping" "a,b\n\"x,y\",plain\n\"has \"\"quote\"\"\",z\n" csv

let test_table_cells () =
  Alcotest.(check string) "int" "12,345" (Tablefmt.cell_int 12345);
  Alcotest.(check string) "negative int" "-1,000" (Tablefmt.cell_int (-1000));
  Alcotest.(check string) "small int" "999" (Tablefmt.cell_int 999);
  Alcotest.(check string) "float" "3.1" (Tablefmt.cell_float 3.14);
  Alcotest.(check string) "pct" "97.53%" (Tablefmt.cell_pct ~digits:2 97.531)

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_preserves_order () =
  let items = List.init 100 Fun.id in
  List.iter
    (fun jobs ->
       Alcotest.(check (list int)) "input order"
         (List.map (fun x -> x * x) items)
         (Pool.map ~jobs (fun x -> x * x) items))
    [ 1; 2; 4; 64 ]

let test_pool_map_array () =
  let items = Array.init 17 Fun.id in
  Alcotest.(check (array int)) "array map"
    (Array.map succ items)
    (Pool.map_array ~jobs:4 succ items)

let test_pool_iter_runs_everything () =
  let hits = Array.make 50 0 in
  (* Each index is touched by exactly one job, so no two domains write the
     same cell. *)
  Pool.iter ~jobs:4 (fun i -> hits.(i) <- hits.(i) + 1) (List.init 50 Fun.id);
  Alcotest.(check bool) "every item once" true (Array.for_all (( = ) 1) hits)

let test_pool_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" [] (Pool.map ~jobs:8 succ []);
  Alcotest.(check (list int)) "singleton" [ 2 ] (Pool.map ~jobs:8 succ [ 1 ])

let test_pool_invalid_jobs () =
  Alcotest.check_raises "jobs 0" (Invalid_argument "Pool: jobs must be >= 1")
    (fun () -> ignore (Pool.map ~jobs:0 succ [ 1 ]))

exception Boom of int

let test_pool_propagates_exception () =
  List.iter
    (fun jobs ->
       match Pool.map ~jobs (fun x -> if x = 13 then raise (Boom x) else x)
               (List.init 40 Fun.id)
       with
       | exception Boom 13 -> ()
       | exception e -> Alcotest.failf "unexpected exception %s" (Printexc.to_string e)
       | _ -> Alcotest.fail "exception swallowed")
    [ 1; 4 ]

let test_pool_default_jobs_positive () =
  Alcotest.(check bool) "at least one" true (Pool.default_jobs () >= 1)

let test_pool_uncapped_honours_jobs () =
  (* [~cap:false] must run exactly [jobs] concurrent workers even above
     the machine's recommended domain count.  Each of the 4 items blocks
     on a 4-party barrier, so the map can only complete if 4 distinct
     workers hold one item each — a capped (or silently serialized) pool
     would deadlock here, not merely slow down. *)
  let m = Mutex.create () and cv = Condition.create () in
  let arrived = ref 0 in
  let barrier _ =
    Mutex.lock m;
    incr arrived;
    if !arrived >= 4 then Condition.broadcast cv
    else
      while !arrived < 4 do
        Condition.wait cv m
      done;
    Mutex.unlock m;
    !arrived
  in
  let results = Pool.map ~cap:false ~jobs:4 barrier (List.init 4 Fun.id) in
  Alcotest.(check (list int)) "all joined" [ 4; 4; 4; 4 ] results;
  Alcotest.(check (list int)) "capped still works"
    [ 1; 4; 9 ]
    (Pool.map ~cap:true ~jobs:64 (fun x -> x * x) [ 1; 2; 3 ])

let test_pool_domain_limit () =
  let before = Pool.default_jobs () in
  (* 1-core simulation: the oversubscription clamp becomes observable on
     any machine. *)
  Pool.with_domain_limit 1 (fun () ->
      Alcotest.(check int) "budget" 1 (Pool.default_jobs ());
      Alcotest.(check (list int)) "capped map degrades to inline"
        [ 1; 4; 9 ]
        (Pool.map ~jobs:8 (fun x -> x * x) [ 1; 2; 3 ]));
  (* The other direction: a raised budget forces real multi-domain
     fan-out on small CI hosts. *)
  Pool.with_domain_limit 4 (fun () ->
      Alcotest.(check int) "raised budget" 4 (Pool.default_jobs ());
      Alcotest.(check (list int)) "multi-domain map"
        (List.init 20 (fun x -> x * x))
        (Pool.map ~jobs:4 (fun x -> x * x) (List.init 20 Fun.id)));
  Alcotest.(check int) "restored on exit" before (Pool.default_jobs ());
  Alcotest.check_raises "limit 0"
    (Invalid_argument "Pool.with_domain_limit: limit must be >= 1")
    (fun () -> Pool.with_domain_limit 0 (fun () -> ()))

(* ------------------------------------------------------------------ *)
(* Bqueue                                                              *)
(* ------------------------------------------------------------------ *)

let test_bqueue_fifo () =
  let q = Bqueue.create ~capacity:8 in
  List.iter (fun x -> assert (Bqueue.push q x)) [ 1; 2; 3; 4 ];
  Alcotest.(check int) "length" 4 (Bqueue.length q);
  Alcotest.(check (option int)) "peek" (Some 1) (Bqueue.peek q);
  Alcotest.(check (list (option int))) "pop order"
    [ Some 1; Some 2; Some 3; Some 4; None ]
    (List.init 5 (fun _ -> Bqueue.pop q));
  Alcotest.(check bool) "empty after drain" true (Bqueue.is_empty q)

let test_bqueue_full_refuses () =
  let q = Bqueue.create ~capacity:2 in
  assert (Bqueue.push q 10);
  assert (Bqueue.push q 20);
  Alcotest.(check bool) "is_full" true (Bqueue.is_full q);
  Alcotest.(check bool) "push refused" false (Bqueue.push q 30);
  (* The refused push must leave the queue untouched. *)
  Alcotest.(check int) "length unchanged" 2 (Bqueue.length q);
  Alcotest.(check (option int)) "head unchanged" (Some 10) (Bqueue.pop q);
  Alcotest.(check (option int)) "tail unchanged" (Some 20) (Bqueue.pop q)

let test_bqueue_wraparound () =
  (* Run many more elements than the capacity through a tiny ring so the
     read/write cursors wrap repeatedly; FIFO order must survive. *)
  let q = Bqueue.create ~capacity:3 in
  let popped = ref [] in
  for x = 1 to 100 do
    if not (Bqueue.push q x) then begin
      (match Bqueue.pop q with
      | Some y -> popped := y :: !popped
      | None -> Alcotest.fail "full queue popped None");
      assert (Bqueue.push q x)
    end
  done;
  let rec drain () =
    match Bqueue.pop q with
    | Some y ->
      popped := y :: !popped;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "all elements in order"
    (List.init 100 (fun i -> i + 1))
    (List.rev !popped);
  Alcotest.(check int) "high water hit capacity" 3 (Bqueue.high_water q)

let test_bqueue_clear () =
  let q = Bqueue.create ~capacity:4 in
  List.iter (fun x -> assert (Bqueue.push q x)) [ 1; 2; 3 ];
  Bqueue.clear q;
  Alcotest.(check bool) "empty" true (Bqueue.is_empty q);
  Alcotest.(check (option int)) "peek none" None (Bqueue.peek q);
  Alcotest.(check int) "high water survives clear" 3 (Bqueue.high_water q);
  assert (Bqueue.push q 9);
  Alcotest.(check (option int)) "usable after clear" (Some 9) (Bqueue.pop q)

let test_bqueue_invalid_capacity () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Bqueue.create: capacity must be >= 1")
    (fun () -> ignore (Bqueue.create ~capacity:0 : int Bqueue.t))

let test_crc32_kernels_agree () =
  (* The slicing-by-4 loops — bigstring for every HOTPATH3 reader,
     string and bytes for the writer — against the byte-at-a-time table
     loop ([update_char], one byte at a time): the standard check value,
     then random slices whose lengths cover the 4-byte body and every
     0-3 byte tail. *)
  let check = "123456789" in
  let big s =
    let b = Bigarray.Array1.create Bigarray.char Bigarray.c_layout (String.length s) in
    String.iteri (fun i c -> b.{i} <- c) s;
    b
  in
  Alcotest.(check int32) "check value" 0xCBF43926l (Crc32.digest_string check);
  Alcotest.(check int32) "bigstring check value" 0xCBF43926l
    (Crc32.update_bigstring Crc32.empty (big check) ~pos:0 ~len:9);
  let rng = Prng.create ~seed:0xC3C in
  let s = String.init 4096 (fun _ -> Char.chr (Prng.int rng ~bound:256)) in
  let b = big s in
  for _ = 1 to 500 do
    let pos = Prng.int rng ~bound:4096 in
    let len = Prng.int rng ~bound:(min 64 (4096 - pos) + 1) in
    let seed = Int32.of_int (Prng.int rng ~bound:0x3FFF_FFFF) in
    let want = ref seed in
    String.iter (fun ch -> want := Crc32.update_char !want ch) (String.sub s pos len);
    let want = !want in
    Alcotest.(check int32) "string = bytewise" want
      (Crc32.update_string seed s ~pos ~len);
    Alcotest.(check int32) "bigstring = bytewise" want
      (Crc32.update_bigstring seed b ~pos ~len);
    Alcotest.(check int32) "bytes = bytewise" want
      (Crc32.update_bytes seed (Bytes.of_string s) ~pos ~len)
  done

let suites =
  [
    ( "util.prng",
      [
        Alcotest.test_case "determinism" `Quick test_prng_determinism;
        Alcotest.test_case "splitmix64 reference outputs" `Quick
          test_prng_splitmix64_reference;
        Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
        Alcotest.test_case "copy replays" `Quick test_prng_copy_replays;
        Alcotest.test_case "split independence" `Quick test_prng_split_independent;
        Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
        Alcotest.test_case "int invalid" `Quick test_prng_int_invalid;
        Alcotest.test_case "int uniformish" `Quick test_prng_int_uniformish;
        Alcotest.test_case "float range" `Quick test_prng_float_range;
        Alcotest.test_case "bool extremes" `Quick test_prng_bool_extremes;
        Alcotest.test_case "bool bias" `Quick test_prng_bool_bias;
        Alcotest.test_case "pick" `Quick test_prng_pick;
        Alcotest.test_case "pick_weighted" `Quick test_prng_pick_weighted;
        Alcotest.test_case "pick_weighted invalid" `Quick test_prng_pick_weighted_invalid;
        Alcotest.test_case "shuffle permutation" `Quick test_prng_shuffle_permutation;
      ] );
    ( "util.vec",
      [
        Alcotest.test_case "push/get" `Quick test_vec_push_get;
        Alcotest.test_case "bounds" `Quick test_vec_bounds;
        Alcotest.test_case "pop" `Quick test_vec_pop;
        Alcotest.test_case "clear/reuse" `Quick test_vec_clear_reuse;
        Alcotest.test_case "conversions" `Quick test_vec_conversions;
        Alcotest.test_case "iteri" `Quick test_vec_iteri;
        QCheck_alcotest.to_alcotest prop_vec_matches_list;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "mean" `Quick test_stats_mean;
        Alcotest.test_case "geomean" `Quick test_stats_geomean;
        Alcotest.test_case "stddev" `Quick test_stats_stddev;
        Alcotest.test_case "percentile" `Quick test_stats_percentile;
        Alcotest.test_case "min/max/ratio" `Quick test_stats_minmax_ratio;
      ] );
    ( "util.tablefmt",
      [
        Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "width mismatch" `Quick test_table_width_mismatch;
        Alcotest.test_case "csv" `Quick test_table_csv;
        Alcotest.test_case "cells" `Quick test_table_cells;
      ] );
    ( "util.pool",
      [
        Alcotest.test_case "preserves order" `Quick test_pool_preserves_order;
        Alcotest.test_case "map_array" `Quick test_pool_map_array;
        Alcotest.test_case "iter covers all" `Quick test_pool_iter_runs_everything;
        Alcotest.test_case "empty and singleton" `Quick test_pool_empty_and_singleton;
        Alcotest.test_case "invalid jobs" `Quick test_pool_invalid_jobs;
        Alcotest.test_case "propagates exception" `Quick
          test_pool_propagates_exception;
        Alcotest.test_case "default jobs" `Quick test_pool_default_jobs_positive;
        Alcotest.test_case "uncapped honours jobs" `Quick
          test_pool_uncapped_honours_jobs;
        Alcotest.test_case "domain limit override" `Quick
          test_pool_domain_limit;
      ] );
    ( "util.bqueue",
      [
        Alcotest.test_case "fifo order" `Quick test_bqueue_fifo;
        Alcotest.test_case "full push refused" `Quick test_bqueue_full_refuses;
        Alcotest.test_case "wraparound" `Quick test_bqueue_wraparound;
        Alcotest.test_case "clear" `Quick test_bqueue_clear;
        Alcotest.test_case "invalid capacity" `Quick
          test_bqueue_invalid_capacity;
      ] );
    ( "util.crc32",
      [
        Alcotest.test_case "bigstring kernel = byte loop" `Quick
          test_crc32_kernels_agree;
      ] );
  ]
