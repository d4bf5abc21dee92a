module Diag = Hotpath_analysis.Diag

let recording (r : Recorder.t) =
  let prog = Hotpath_analysis.Lint.check_program r.Recorder.program in
  let trace =
    Lint.check_parts ~program:r.Recorder.program ~table:r.Recorder.table
      ~instances:r.Recorder.instances ~arrivals:r.Recorder.arrivals
  in
  (* check_parts re-runs the structural pass; keep only its trace codes
     so program findings are not reported twice. *)
  prog @ List.filter (fun d -> d.Diag.code.[0] = 'T') trace

let file path =
  match Serialize.load ~path with
  | Ok r -> recording r
  | Error e -> [ Diag.error ~code:"T200" ~loc:Diag.Program "%s" e ]

let program ?cap p = Hotpath_analysis.Lint.check_program ?cap p
