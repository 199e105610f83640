"""Fixture-based tests for every repro-lint rule plus the engine and CLI.

Each rule gets at least one *failing* fixture (a small source snippet that
must trigger the rule) and one *clean* fixture (the compliant shape of the
same code).  The live-tree test at the bottom pins the acceptance criterion:
``python -m tools.lint src perfbench tests/reference`` (the CI
step's paths) exits 0 on the repository itself.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from tools.lint.engine import Violation, lint_paths, load_file_context
from tools.lint.rules import ALL_RULES

REPO_ROOT = Path(__file__).resolve().parents[2]


def lint_source(
    tmp_path: Path,
    source: str,
    *,
    select: list[str],
    filename: str = "mod.py",
) -> list[Violation]:
    """Write ``source`` to a scratch file and run the selected rules on it."""
    target = tmp_path / filename
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_paths([target], select=select)


def codes(violations: list[Violation]) -> set[str]:
    return {violation.code for violation in violations}


# ---------------------------------------------------------------------------
# RL001 — no global-RNG calls
# ---------------------------------------------------------------------------


class TestRL001GlobalRng:
    def test_numpy_legacy_global_api_flagged(self, tmp_path: Path) -> None:
        violations = lint_source(
            tmp_path,
            """
            import numpy as np

            def sample(n):
                return np.random.rand(n)
            """,
            select=["RL001"],
        )
        assert codes(violations) == {"RL001"}
        assert "np.random.rand" in violations[0].message

    def test_stdlib_random_module_flagged(self, tmp_path: Path) -> None:
        violations = lint_source(
            tmp_path,
            """
            import random

            def jitter():
                return random.random()
            """,
            select=["RL001"],
        )
        assert codes(violations) == {"RL001"}

    def test_from_random_import_flagged(self, tmp_path: Path) -> None:
        violations = lint_source(
            tmp_path,
            """
            from random import shuffle

            def mix(items):
                shuffle(items)
                return items
            """,
            select=["RL001"],
        )
        assert codes(violations) == {"RL001"}

    def test_seedless_default_rng_flagged(self, tmp_path: Path) -> None:
        violations = lint_source(
            tmp_path,
            """
            import numpy as np

            def fresh():
                return np.random.default_rng()
            """,
            select=["RL001"],
        )
        assert codes(violations) == {"RL001"}
        assert "fresh OS entropy" in violations[0].message

    def test_default_rng_none_flagged(self, tmp_path: Path) -> None:
        violations = lint_source(
            tmp_path,
            """
            import numpy as np

            def fresh():
                return np.random.default_rng(None)
            """,
            select=["RL001"],
        )
        assert codes(violations) == {"RL001"}

    def test_wall_clock_seed_flagged(self, tmp_path: Path) -> None:
        violations = lint_source(
            tmp_path,
            """
            import time
            import numpy as np

            def fresh():
                return np.random.default_rng(time.time())
            """,
            select=["RL001"],
        )
        assert codes(violations) == {"RL001"}
        assert "wall clock" in violations[0].message

    def test_explicit_seed_and_generator_clean(self, tmp_path: Path) -> None:
        violations = lint_source(
            tmp_path,
            """
            import numpy as np

            def sample(seed, n):
                rng = np.random.default_rng(seed)
                return rng.random(n)

            def fixed():
                return np.random.default_rng(42)

            def from_sequence(ss):
                return np.random.default_rng(np.random.SeedSequence(7))
            """,
            select=["RL001"],
        )
        assert violations == []


# ---------------------------------------------------------------------------
# RL002 — hook-signature conformance
# ---------------------------------------------------------------------------


class TestRL002HookSignatures:
    def test_plane_keyword_batch_hook_flagged(self, tmp_path: Path) -> None:
        # The pre-transport contract: the planes as defaulted keywords.
        violations = lint_source(
            tmp_path,
            """
            class OldProtocol:
                def _disseminate_batch(
                    self, n, alive, source, rng, network=None, churn=None, latency=None
                ):
                    return alive, 0, 0, 0
            """,
            select=["RL002"],
        )
        assert codes(violations) == {"RL002"}
        assert "transport" in violations[0].message

    def test_batch_hook_without_transport_flagged(self, tmp_path: Path) -> None:
        violations = lint_source(
            tmp_path,
            """
            class BadProtocol:
                def _disseminate_batch(self, n, alive, source, rng):
                    return alive
            """,
            select=["RL002"],
        )
        assert codes(violations) == {"RL002"}

    def test_defaulted_transport_flagged(self, tmp_path: Path) -> None:
        violations = lint_source(
            tmp_path,
            """
            class BadProtocol:
                def _disseminate_batch(self, n, alive, source, rng, transport=None):
                    return alive
            """,
            select=["RL002"],
        )
        assert codes(violations) == {"RL002"}

    def test_transport_signature_clean(self, tmp_path: Path) -> None:
        violations = lint_source(
            tmp_path,
            """
            class GoodProtocol:
                def _disseminate_batch(self, n, alive, source, rng, transport):
                    return alive
            """,
            select=["RL002"],
        )
        assert violations == []

    def test_kwargs_catchall(self, tmp_path: Path) -> None:
        # The hook must name its transport; a catch-all hides it.
        violations = lint_source(
            tmp_path,
            """
            class ForwardingProtocol:
                def _disseminate_batch(self, n, alive, source, rng, **kwargs):
                    return alive
            """,
            select=["RL002"],
        )
        assert codes(violations) == {"RL002"}
        assert [v.message.split(" ")[0] for v in violations] == [
            "ForwardingProtocol._disseminate_batch"
        ]

    def test_pragma_opt_out(self, tmp_path: Path) -> None:
        violations = lint_source(
            tmp_path,
            """
            class OptedOut:
                def _disseminate_batch(  # repro-lint: disable=RL002
                    self, n, alive, source, rng, network=None, churn=None
                ):
                    return alive, 0, 0, 0
            """,
            select=["RL002"],
        )
        assert violations == []


# ---------------------------------------------------------------------------
# RL003 — frozen, picklable model classes
# ---------------------------------------------------------------------------


class TestRL003FrozenSamplers:
    def test_plain_churn_model_subclass_flagged(self, tmp_path: Path) -> None:
        violations = lint_source(
            tmp_path,
            """
            from repro.simulation.churn import ChurnModel

            class MutableChurn(ChurnModel):
                def draw_batch(self, n, repetitions, rng, *, source=0):
                    return None
            """,
            select=["RL003"],
        )
        assert codes(violations) == {"RL003"}
        assert "frozen=True" in violations[0].message

    def test_unfrozen_dataclass_failure_model_flagged(self, tmp_path: Path) -> None:
        violations = lint_source(
            tmp_path,
            """
            from dataclasses import dataclass
            from repro.simulation.failures import FailureModel

            @dataclass
            class MutableModel(FailureModel):
                q: float = 0.9

                def draw(self, n, rng, *, source=0):
                    return None
            """,
            select=["RL003"],
        )
        assert codes(violations) == {"RL003"}

    def test_latency_sampler_duck_type_flagged(self, tmp_path: Path) -> None:
        violations = lint_source(
            tmp_path,
            """
            class ClosureSampler:
                def __call__(self, rng):
                    return 1.0

                def draw(self, rng, count):
                    return [1.0] * count
            """,
            select=["RL003"],
        )
        assert codes(violations) == {"RL003"}

    def test_generator_field_flagged(self, tmp_path: Path) -> None:
        violations = lint_source(
            tmp_path,
            """
            from dataclasses import dataclass
            import numpy as np
            from repro.simulation.churn import ChurnModel

            @dataclass(frozen=True)
            class StreamOwningChurn(ChurnModel):
                rng: np.random.Generator

                def draw_batch(self, n, repetitions, rng, *, source=0):
                    return None
            """,
            select=["RL003"],
        )
        assert codes(violations) == {"RL003"}
        assert "Generator" in violations[0].message

    def test_lambda_default_flagged(self, tmp_path: Path) -> None:
        violations = lint_source(
            tmp_path,
            """
            from dataclasses import dataclass, field
            from repro.simulation.churn import ChurnModel

            @dataclass(frozen=True)
            class LambdaChurn(ChurnModel):
                hazard: object = field(default_factory=lambda: 0.1)

                def draw_batch(self, n, repetitions, rng, *, source=0):
                    return None
            """,
            select=["RL003"],
        )
        assert codes(violations) == {"RL003"}
        assert "lambda" in violations[0].message

    def test_frozen_dataclass_clean(self, tmp_path: Path) -> None:
        violations = lint_source(
            tmp_path,
            """
            from dataclasses import dataclass
            from repro.simulation.failures import FailureModel

            @dataclass(frozen=True)
            class GoodModel(FailureModel):
                q: float = 0.9

                def draw(self, n, rng, *, source=0):
                    return None
            """,
            select=["RL003"],
        )
        assert violations == []

    def test_abstract_base_exempt(self, tmp_path: Path) -> None:
        violations = lint_source(
            tmp_path,
            """
            from abc import ABC, abstractmethod

            class FailureModel(ABC):
                @abstractmethod
                def draw(self, n, rng, *, source=0):
                    ...
            """,
            select=["RL003"],
        )
        assert violations == []


# ---------------------------------------------------------------------------
# RL004 — zero-draw discipline
# ---------------------------------------------------------------------------


class TestRL004ZeroDraw:
    def test_unguarded_draw_flagged(self, tmp_path: Path) -> None:
        violations = lint_source(
            tmp_path,
            """
            class Plane:
                # repro: zero-draw(loss_probability)
                def draw_loss(self, rng, count):
                    return rng.random(count) < self.loss_probability
            """,
            select=["RL004"],
        )
        assert codes(violations) == {"RL004"}
        assert "loss_probability" in violations[0].message

    def test_bare_marker_with_any_draw_flagged(self, tmp_path: Path) -> None:
        violations = lint_source(
            tmp_path,
            """
            class ConstantSampler:
                # repro: zero-draw
                def draw(self, rng, count):
                    return rng.normal(size=count)
            """,
            select=["RL004"],
        )
        assert codes(violations) == {"RL004"}
        assert "no randomness at all" in violations[0].message

    def test_if_guarded_draw_clean(self, tmp_path: Path) -> None:
        violations = lint_source(
            tmp_path,
            """
            import numpy as np

            class Plane:
                # repro: zero-draw(loss_probability)
                def draw_loss(self, rng, count):
                    lost = np.zeros(count, dtype=bool)
                    if self.loss_probability > 0.0:
                        lost = rng.random(count) < self.loss_probability
                    return lost
            """,
            select=["RL004"],
        )
        assert violations == []

    def test_early_return_guard_clean(self, tmp_path: Path) -> None:
        violations = lint_source(
            tmp_path,
            """
            import numpy as np

            class Plane:
                # repro: zero-draw(rate)
                def draw(self, rng, count):
                    if self.rate == 0.0:
                        return np.zeros(count)
                    return rng.geometric(self.rate, size=count)
            """,
            select=["RL004"],
        )
        assert violations == []

    def test_unmarked_function_draws_freely(self, tmp_path: Path) -> None:
        violations = lint_source(
            tmp_path,
            """
            def sample(rng, n):
                return rng.random(n)
            """,
            select=["RL004"],
        )
        assert violations == []


# ---------------------------------------------------------------------------
# RL005 — no wall-clock reads
# ---------------------------------------------------------------------------


class TestRL005WallClock:
    def test_time_time_flagged(self, tmp_path: Path) -> None:
        violations = lint_source(
            tmp_path,
            """
            import time

            def stamp():
                return time.time()
            """,
            select=["RL005"],
        )
        assert codes(violations) == {"RL005"}
        assert "perf_counter" in violations[0].message

    def test_datetime_now_flagged(self, tmp_path: Path) -> None:
        violations = lint_source(
            tmp_path,
            """
            from datetime import datetime

            def stamp():
                return datetime.now()
            """,
            select=["RL005"],
        )
        assert codes(violations) == {"RL005"}

    def test_monotonic_clocks_clean(self, tmp_path: Path) -> None:
        violations = lint_source(
            tmp_path,
            """
            import time

            def measure():
                start = time.perf_counter()
                mono = time.monotonic()
                cpu = time.process_time()
                return time.perf_counter() - start, mono, cpu
            """,
            select=["RL005"],
        )
        assert violations == []


# ---------------------------------------------------------------------------
# RL006 — experiment-registry hygiene
# ---------------------------------------------------------------------------

_EXPERIMENT_MODULE = """
PAPER_REFERENCE = "Section 4"

def run_demo(scale=1.0):
    return None
"""

_REGISTRY_TEMPLATE = """
import demo
from repro.experiments.registry import ExperimentSpec

SPECS = [
{entries}
]
"""


class TestRL006Registry:
    def _write_tree(self, tmp_path: Path, registry_entries: list[str] | None) -> Path:
        experiments = tmp_path / "experiments"
        experiments.mkdir()
        (experiments / "demo.py").write_text(
            textwrap.dedent(_EXPERIMENT_MODULE), encoding="utf-8"
        )
        if registry_entries is not None:
            body = "\n".join(f"    {entry}," for entry in registry_entries)
            (experiments / "registry.py").write_text(
                textwrap.dedent(_REGISTRY_TEMPLATE).format(entries=body),
                encoding="utf-8",
            )
        return experiments

    def test_unregistered_experiment_module_flagged(self, tmp_path: Path) -> None:
        experiments = self._write_tree(tmp_path, registry_entries=[])
        violations = lint_paths([experiments], select=["RL006"])
        assert codes(violations) == {"RL006"}
        assert "not registered" in violations[0].message

    def test_double_registration_flagged(self, tmp_path: Path) -> None:
        entry = 'ExperimentSpec(name="demo", runner=demo.run_demo)'
        experiments = self._write_tree(tmp_path, registry_entries=[entry, entry])
        violations = lint_paths([experiments], select=["RL006"])
        assert codes(violations) == {"RL006"}
        assert "2 times" in violations[0].message

    def test_missing_registry_flagged(self, tmp_path: Path) -> None:
        experiments = self._write_tree(tmp_path, registry_entries=None)
        violations = lint_paths([experiments], select=["RL006"])
        assert codes(violations) == {"RL006"}
        assert "no experiments/registry.py" in violations[0].message

    def test_single_registration_clean(self, tmp_path: Path) -> None:
        experiments = self._write_tree(
            tmp_path,
            registry_entries=['ExperimentSpec(name="demo", runner=demo.run_demo)'],
        )
        violations = lint_paths([experiments], select=["RL006"])
        assert violations == []

    def test_with_scale_without_factor_validation_flagged(self, tmp_path: Path) -> None:
        violations = lint_source(
            tmp_path,
            """
            from dataclasses import replace

            class Config:
                def with_scale(self, factor):
                    return replace(self, replicas=int(self.replicas * factor))
            """,
            select=["RL006"],
        )
        assert codes(violations) == {"RL006"}
        assert "validates" in violations[0].message

    def test_with_scale_division_by_factor_flagged(self, tmp_path: Path) -> None:
        violations = lint_source(
            tmp_path,
            """
            from dataclasses import replace

            class Config:
                def with_scale(self, factor):
                    if not 0.0 < factor <= 1.0:
                        raise ValueError(factor)
                    return replace(self, replicas=int(self.replicas / factor))
            """,
            select=["RL006"],
        )
        assert codes(violations) == {"RL006"}
        assert "widens" in violations[0].message

    def test_with_scale_literal_widening_flagged(self, tmp_path: Path) -> None:
        violations = lint_source(
            tmp_path,
            """
            from dataclasses import replace

            class Config:
                def with_scale(self, factor):
                    if not 0.0 < factor <= 1.0:
                        raise ValueError(factor)
                    return replace(self, replicas=int(self.replicas * factor * 4))
            """,
            select=["RL006"],
        )
        assert codes(violations) == {"RL006"}
        assert "literal 4" in violations[0].message

    def test_with_scale_ignoring_factor_flagged(self, tmp_path: Path) -> None:
        violations = lint_source(
            tmp_path,
            """
            from dataclasses import replace

            class Config:
                def with_scale(self, factor):
                    if not 0.0 < factor <= 1.0:
                        raise ValueError(factor)
                    return replace(self, replicas=self.replicas)
            """,
            select=["RL006"],
        )
        assert codes(violations) == {"RL006"}
        assert "ignores `factor`" in violations[0].message

    def test_shrinking_with_scale_clean(self, tmp_path: Path) -> None:
        violations = lint_source(
            tmp_path,
            """
            from dataclasses import replace

            class Config:
                def with_scale(self, factor):
                    if not 0.0 < factor <= 1.0:
                        raise ValueError(factor)
                    replicas = max(1, int(self.replicas * factor))
                    return replace(self, replicas=replicas)
            """,
            select=["RL006"],
        )
        assert violations == []


# ---------------------------------------------------------------------------
# Engine: pragmas, markers, selection, rendering
# ---------------------------------------------------------------------------


class TestEngine:
    def test_inline_pragma_suppresses_violation(self, tmp_path: Path) -> None:
        violations = lint_source(
            tmp_path,
            """
            import time

            def stamp():
                return time.time()  # repro-lint: disable=RL005
            """,
            select=["RL005"],
        )
        assert violations == []

    def test_pragma_with_multiple_codes(self, tmp_path: Path) -> None:
        violations = lint_source(
            tmp_path,
            """
            import time
            import numpy as np

            def stamp():
                return np.random.default_rng(time.time())  # repro-lint: disable=RL001,RL005
            """,
            select=["RL001", "RL005"],
        )
        assert violations == []

    def test_pragma_does_not_leak_to_other_lines(self, tmp_path: Path) -> None:
        violations = lint_source(
            tmp_path,
            """
            import time

            def stamp():
                first = time.time()  # repro-lint: disable=RL005
                return first + time.time()
            """,
            select=["RL005"],
        )
        assert len(violations) == 1

    def test_unknown_select_code_raises(self, tmp_path: Path) -> None:
        target = tmp_path / "mod.py"
        target.write_text("x = 1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="RL999"):
            lint_paths([target], select=["RL999"])

    def test_violation_render_format(self) -> None:
        violation = Violation(code="RL001", path="src/x.py", line=7, message="boom")
        assert violation.render() == "src/x.py:7: RL001 boom"

    def test_zero_draw_marker_parsing(self, tmp_path: Path) -> None:
        target = tmp_path / "mod.py"
        target.write_text(
            textwrap.dedent(
                """
                # repro: zero-draw(rate)
                def draw(rng):
                    return None

                # repro: zero-draw
                def constant(rng):
                    return 1.0
                """
            ),
            encoding="utf-8",
        )
        context = load_file_context(target)
        guards = {marker.guard for marker in context.zero_draw_markers.values()}
        assert guards == {"rate", None}

    def test_all_rules_have_unique_codes_and_summaries(self) -> None:
        rule_codes = [rule.code for rule in ALL_RULES]
        assert sorted(rule_codes) == ["RL001", "RL002", "RL003", "RL004", "RL005", "RL006"]
        assert len(set(rule_codes)) == len(rule_codes)
        assert all(rule.summary for rule in ALL_RULES)


# ---------------------------------------------------------------------------
# CLI and live tree
# ---------------------------------------------------------------------------


def run_lint_cli(*args: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, "-m", "tools.lint", *args],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )


class TestCli:
    def test_live_tree_is_clean(self) -> None:
        """Acceptance criterion: the repository itself passes repro-lint.

        The same paths as the CI lint step: the parity oracles under
        ``tests/reference`` pin fixed-seed streams, so they are held to the
        generator rules too.
        """
        result = run_lint_cli("src", "perfbench", "tests/reference")
        assert result.returncode == 0, result.stdout + result.stderr

    def test_broken_invariant_fails_the_run(self, tmp_path: Path) -> None:
        """Acceptance criterion: deliberately breaking an invariant fails lint."""
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import numpy as np\n\n\ndef sample(n):\n    return np.random.rand(n)\n",
            encoding="utf-8",
        )
        result = run_lint_cli(str(bad))
        assert result.returncode == 1
        assert "RL001" in result.stdout
        assert "violation" in result.stderr

    def test_list_rules(self) -> None:
        result = run_lint_cli("--list-rules")
        assert result.returncode == 0
        for code in ("RL001", "RL002", "RL003", "RL004", "RL005", "RL006"):
            assert code in result.stdout

    def test_select_restricts_rules(self, tmp_path: Path) -> None:
        bad = tmp_path / "bad.py"
        bad.write_text("import time\n\nstamp = time.time()\n", encoding="utf-8")
        clean_for_rl001 = run_lint_cli(str(bad), "--select", "RL001")
        assert clean_for_rl001.returncode == 0
        flagged = run_lint_cli(str(bad), "--select", "RL005")
        assert flagged.returncode == 1

    def test_missing_path_is_usage_error(self) -> None:
        result = run_lint_cli("no/such/path")
        assert result.returncode == 2

    def test_unknown_rule_code_is_usage_error(self, tmp_path: Path) -> None:
        target = tmp_path / "mod.py"
        target.write_text("x = 1\n", encoding="utf-8")
        result = run_lint_cli(str(target), "--select", "RL999")
        assert result.returncode == 2

    def test_unparseable_file_is_usage_error(self, tmp_path: Path) -> None:
        target = tmp_path / "broken.py"
        target.write_text("def broken(:\n", encoding="utf-8")
        result = run_lint_cli(str(target))
        assert result.returncode == 2


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_strict_gate() -> None:
    """The strict-typing gate holds whenever mypy is available (always in CI)."""
    result = subprocess.run(
        ["mypy", "--strict", "src/repro"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
