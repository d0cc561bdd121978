"""Rule implementations; importing this package registers every rule.

Families (stable id prefixes, see DESIGN.md § "Static analysis"):

* :mod:`~repro.lint.rules.autograd` — RL101 backward contract, RL102
  loop-variable capture in backward closures;
* :mod:`~repro.lint.rules.mutation` — RL201 in-place ``.data`` mutation;
* :mod:`~repro.lint.rules.determinism` — RL301 legacy ``np.random``,
  RL302 stdlib ``random``, RL303 clock-derived seeds;
* :mod:`~repro.lint.rules.obs_guard` — RL401 unguarded metrics calls on
  hot paths;
* :mod:`~repro.lint.rules.bench_contract` — RL501 profile hooks, RL502
  run_all registration;
* :mod:`~repro.lint.rules.exports` — RL601 ``__all__`` names exist,
  RL602 packages declare ``__all__``;
* :mod:`~repro.lint.rules.par` — RL701 explicit ``jobs=`` at repro.par
  call sites, RL702 no ambient-state ``jobs``/``seed`` values;
* :mod:`~repro.lint.rules.faults` — RL801 overbroad except handlers that
  would swallow injected faults in the fault-wired packages;
* :mod:`~repro.lint.rules.kernels` — RL1001 batched-kernel contract (no
  per-pair scoring/composition loops under ``repro/serve/`` and
  ``repro/er/``);
* :mod:`~repro.lint.rules.interproc` — whole-program RL1101 determinism
  taint, RL1102 interprocedural seed flow, RL1103 fault-site registry
  coherence, RL1104 serve purity (run over the
  :class:`~repro.lint.project.ProjectContext` call graph).  RL1104
  absorbed the per-file RL901 read-only rule; RL901 stays reserved.
"""

from repro.lint.rules.autograd import BackwardContractRule, LoopCaptureRule
from repro.lint.rules.bench_contract import BenchProfileContractRule, BenchRegisteredRule
from repro.lint.rules.determinism import (
    LegacyNumpyRandomRule,
    StdlibRandomRule,
    TimeSeededRule,
)
from repro.lint.rules.exports import AllNamesExistRule, PackageDefinesAllRule
from repro.lint.rules.faults import FaultSwallowingExceptRule
from repro.lint.rules.interproc import (
    DeterminismTaintRule,
    FaultSiteCoherenceRule,
    SeedFlowRule,
    ServePurityClosureRule,
)
from repro.lint.rules.kernels import PerPairLoopRule
from repro.lint.rules.mutation import InPlaceDataMutationRule
from repro.lint.rules.obs_guard import ObsHotPathGuardRule
from repro.lint.rules.par import ParAmbientStateRule, ParExplicitJobsRule

__all__ = [
    "AllNamesExistRule",
    "BackwardContractRule",
    "BenchProfileContractRule",
    "BenchRegisteredRule",
    "DeterminismTaintRule",
    "FaultSiteCoherenceRule",
    "FaultSwallowingExceptRule",
    "InPlaceDataMutationRule",
    "LegacyNumpyRandomRule",
    "LoopCaptureRule",
    "ObsHotPathGuardRule",
    "PackageDefinesAllRule",
    "ParAmbientStateRule",
    "ParExplicitJobsRule",
    "PerPairLoopRule",
    "SeedFlowRule",
    "ServePurityClosureRule",
    "StdlibRandomRule",
    "TimeSeededRule",
]
