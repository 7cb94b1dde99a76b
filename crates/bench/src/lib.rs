//! Criterion benches for the simulator's hot paths (see `benches/`):
//! the micro-costs behind the §4.3 overhead claims (`overhead`), dense
//! vs adaptive time-advance on catalog scenarios (`time_modes`) and the
//! mem-layer integrator with and without the steady-rate cache
//! (`exec_step`). The wall time of each paper artifact is measured by
//! the `repro` and `sweep` binaries instead.

#![warn(missing_docs)]
