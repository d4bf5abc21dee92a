(* Every field of Engine.result, floats in hexadecimal ([%h], so equal
   text means equal bits), for the Figure 5 schemes x delays 10/50/100 on
   two small suite recordings, both cache eviction policies at a small
   capacity, and one run with events on (its event stream printed too).
   The output is diffed against fixtures/golden/dynamo_results.expected:
   any change to the engine's accounting shows up as a changed bit. *)

module Suite = Hotpath_workloads.Suite
module Engine = Hotpath_dynamo.Engine
module Cost_model = Hotpath_dynamo.Cost_model
module Fragment_cache = Hotpath_dynamo.Fragment_cache
module Scheme = Hotpath_prediction.Scheme
module Events = Hotpath_util.Events

(* Figure 5's columns, each with its cost family. *)
let schemes =
  List.map
    (fun (name, scheme) -> (name, scheme, Engine.costs_for ~scheme:name))
    [ ("net", (module Hotpath_prediction.Net : Scheme.S));
      ("path-profile", (module Hotpath_prediction.Path_profile : Scheme.S));
      ("net-k2", Hotpath_prediction.Net_k.make 2);
      ("static", (module Hotpath_prediction.Static : Scheme.S)) ]

let delays = [ 10; 50; 100 ]

let print_result label (r : Engine.result) =
  Printf.printf
    "%s: scheme=%s delay=%d native=%h dynamo=%h speedup=%h bailed=%b fragments=%d \
     flushes=%d full=%d partial=%d miss=%d native_tail=%d frag=%h interp=%h prof=%h \
     ovh=%h flush=%h coverage=%h\n"
    label r.Engine.r_scheme r.Engine.r_delay r.Engine.r_native_cycles
    r.Engine.r_dynamo_cycles r.Engine.r_speedup_pct r.Engine.r_bailed
    r.Engine.r_fragments r.Engine.r_flushes r.Engine.r_full_hits
    r.Engine.r_partial_hits r.Engine.r_misses r.Engine.r_native_tail
    r.Engine.r_cycles_fragment r.Engine.r_cycles_interp r.Engine.r_cycles_profile
    r.Engine.r_cycles_overhead r.Engine.r_cycles_flush r.Engine.r_cache_coverage_pct

let cost = Cost_model.default

let run ?cache_capacity ?cache_eviction ?events ?events_window ~scheme:(_, scheme, costs_of)
    ~delay r =
  Engine.run
    (Engine.config ~cost ?cache_capacity ?cache_eviction ?events ?events_window ~scheme
       ~scheme_costs:(costs_of cost) ~delay ())
    r

let () =
  let recordings =
    [ ("li", Suite.record ~scale:0.2 (Suite.find_exn "li"));
      ("deltablue", Suite.record ~scale:0.3 (Suite.find_exn "deltablue")) ]
  in
  List.iter
    (fun (bench, r) ->
       List.iter
         (fun ((name, _, _) as scheme) ->
            List.iter
              (fun delay ->
                 print_result (Printf.sprintf "%s %s %d" bench name delay)
                   (run ~scheme ~delay r))
              delays)
         schemes)
    recordings;
  let net = List.hd schemes in
  let deltablue = List.assoc "deltablue" recordings in
  List.iter
    (fun (label, eviction) ->
       print_result
         (Printf.sprintf "deltablue net 50 capacity=48 %s" label)
         (run ~cache_capacity:48 ~cache_eviction:eviction ~scheme:net ~delay:50 deltablue))
    [ ("reject", Fragment_cache.Reject_when_full); ("lru", Fragment_cache.Evict_lru) ];
  let buf = Buffer.create 4096 in
  print_result "li net 10 events"
    (run ~events:(Events.of_buffer buf) ~events_window:4096 ~scheme:net ~delay:10
       (List.assoc "li" recordings));
  print_string (Buffer.contents buf)
