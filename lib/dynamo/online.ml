module Cfg = Hotpath_cfg.Cfg
module Vm = Hotpath_vm.Vm
module Segmenter = Hotpath_trace.Segmenter
module Path_table = Hotpath_trace.Path_table

type outcome = { o_result : Engine.result; o_instances : int; o_paths : int }

let run ?max_steps ?max_paths ?max_stack ~config program behavior ~rng =
  let vm = Vm.create ?max_stack program behavior ~rng in
  let table = Path_table.create () in
  let stepper =
    Engine.Stepper.create config ~program ~lookup:(Path_table.path table)
  in
  let instances = ref 0 in
  ignore
    (Segmenter.run ?max_steps ?max_paths (Segmenter.create program table) vm
       ~on_path:(fun id arrival ->
           incr instances;
           Engine.Stepper.step stepper ~path:(Path_table.path table id) ~arrival)
     : [ `Exited | `Fuel ]);
  {
    o_result = Engine.Stepper.finalize stepper;
    o_instances = !instances;
    o_paths = Path_table.size table;
  }
