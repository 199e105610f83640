"""``repro-lint``: AST-based invariant checker for the simulation stack.

Nine PRs of growth accreted load-bearing *conventions* that runtime tests can
only catch after a wrong number ships: explicit ``numpy.random.Generator``
threading (the bit-identical-at-any-pool-size guarantee), zero-intensity
planes drawing **no** randomness (loss p=0 / churn rate 0 stay bit-identical
to the plane-off paths), one calling contract for the
``_disseminate_batch`` hook (every hook receives the batch's ``Transport``;
a hook declaring its own plane keywords would receive none of them), and
frozen picklable sampler dataclasses (models cross ``utils.parallel``
pools).  This
package encodes each of those contracts as a static rule over the stdlib
``ast`` module — no new runtime dependencies — so violations fail lint, not
production numbers.

Run it from the repository root::

    python -m tools.lint src perfbench tests/reference

Rules (see ``docs/ARCHITECTURE.md`` § "Static invariants" for the runtime
contract each protects):

========  =============================================================
 RL001    no global-RNG calls (``np.random.*`` module functions,
          stdlib ``random``, unseeded/time-seeded ``default_rng()``)
 RL002    the protocol hook keeps the engine's calling contract:
          ``_disseminate_batch`` takes exactly
          ``(n, alive, source, rng, transport)``
 RL003    latency/churn/failure models are ``@dataclass(frozen=True)``
          with no closure/lambda/Generator fields (pool-picklable)
 RL004    functions under a ``# repro: zero-draw(<name>)`` contract only
          touch the Generator behind a guard on ``<name>``
 RL005    no wall-clock reads (``time.time``, ``datetime.now``, ...)
 RL006    experiment-registry hygiene: every experiment module registers
          exactly once and ``with_scale`` never widens budgets
========  =============================================================

Suppress a single finding with an inline pragma on the offending line::

    rng = np.random.rand(4)  # repro-lint: disable=RL001
"""

from tools.lint.engine import (
    FileContext,
    Violation,
    iter_python_files,
    lint_paths,
    load_file_context,
)
from tools.lint.rules import ALL_RULES, Rule

__all__ = [
    "ALL_RULES",
    "FileContext",
    "Rule",
    "Violation",
    "iter_python_files",
    "lint_paths",
    "load_file_context",
]
