type ('c, 'r) entry = {
  profiler :
    (module Profiler_intf.S with type config = 'c and type result = 'r);
  config : Workload.t -> 'c;
}

let default (type c r)
    (module P : Profiler_intf.S with type config = c and type result = r) =
  { profiler = (module P); config = (fun _ -> P.default_config) }

let profile = default (module Profile.Profiler)
let sample = default (module Sampler.Profiler)
let memory = default (module Memprof.Profiler)

let procs =
  { profiler = (module Procprof.Profiler);
    config =
      (fun w -> { Procprof.default_config with arities = w.Workload.warities })
  }

let registers = default (module Regprof.Profiler)

let contexts =
  { profiler = (module Ctxprof.Profiler);
    config =
      (fun w -> { Ctxprof.default_config with arities = w.Workload.warities })
  }

let phases = default (module Phaseprof.Profiler)
let trivial = default (module Trivprof.Profiler)
let speculate = default (module Specul.Profiler)

type t = Entry : ('c, 'r) entry -> t

let all =
  [ Entry profile; Entry sample; Entry memory; Entry procs; Entry registers;
    Entry contexts; Entry phases; Entry trivial; Entry speculate ]

let name (type c r) (e : (c, r) entry) =
  let (module P) = e.profiler in
  P.name

let names = List.map (fun (Entry e) -> name e) all
let find n = List.find_opt (fun (Entry e) -> name e = n) all

let job ?config ?fuel ~finish e w input =
  let config = Option.value config ~default:(e.config w) in
  Driver.job ~config ?fuel ~finish e.profiler w input
