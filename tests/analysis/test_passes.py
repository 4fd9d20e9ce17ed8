"""Tests for the dataflow-aware passes (DD007-DD012).

Three layers:

* **Corpus** — each rule's seeded positive fixture must fire and its
  near-miss negative must stay silent (tests/analysis/corpus/).
* **Unit** — resolution behavior the corpus can't isolate: aliased
  imports, cross-module call chains, ``.real``/``.imag`` demotion,
  timeout exemptions, signal-handler transitivity.
* **Tree** — the fixed ``src/`` tree yields zero dataflow-pass
  findings (the zero-false-positive assertion of ISSUE 8).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import lint_modules, lint_paths
from repro.analysis.dataflow import ProjectIndex

CORPUS = Path(__file__).resolve().parent / "corpus"
REPO_ROOT = Path(__file__).resolve().parents[2]

DATAFLOW_RULES = ("DD007", "DD008", "DD009", "DD010", "DD011", "DD012")
#: Rules with a seeded corpus fixture; DD013 is syntactic but rides the
#: same positive/near-miss harness.
CORPUS_RULES = DATAFLOW_RULES + ("DD013",)


def codes(source: str, path: str) -> list[str]:
    return [v.rule for v in lint_modules([(path, source)])]


class TestCorpus:
    @pytest.mark.parametrize("rule", CORPUS_RULES)
    def test_positive_fixture_fires(self, rule):
        root = CORPUS / rule.lower() / "positive"
        found = {v.rule for v in lint_paths([root], root)}
        assert rule in found

    @pytest.mark.parametrize("rule", CORPUS_RULES)
    def test_negative_fixture_is_silent(self, rule):
        root = CORPUS / rule.lower() / "negative"
        found = {v.rule for v in lint_paths([root], root)}
        assert rule not in found

    @pytest.mark.parametrize("rule", DATAFLOW_RULES)
    def test_positive_findings_carry_a_trace(self, rule):
        root = CORPUS / rule.lower() / "positive"
        hits = [v for v in lint_paths([root], root) if v.rule == rule]
        assert hits
        for violation in hits:
            assert violation.trace
            assert rule in violation.format()
            assert "|" in violation.format_verbose()


class TestDD007Resolution:
    @pytest.mark.parametrize(
        "imports, call",
        [
            ("import numpy as np", "np.abs(w, w)"),
            ("import numpy as np", "np.absolute(w, w)"),
            ("import numpy as np", "np.hypot(w, w)"),
            ("import numpy as np", "np.divide(w, w)"),
            # An aliased from-import names no ``np.<ufunc>`` at the call
            # site; import resolution still sees the banned ufunc.
            ("from numpy import hypot as h", "h(w, w)"),
        ],
        ids=["abs", "absolute", "hypot", "divide", "from-import-alias"],
    )
    def test_banned_ufunc_is_flagged(self, imports, call):
        source = f"{imports}\ndef norm(w: list) -> object:\n    return {call}\n"
        assert "DD007" in codes(source, "src/repro/dd/backends/k.py")

    def test_local_alias_is_resolved(self):
        source = (
            "import numpy as np\n"
            "h = np.hypot\n"
            "def norm(x: list, y: list) -> object:\n"
            "    return h(x, y)\n"
        )
        assert "DD007" in codes(source, "src/repro/dd/backends/k.py")

    def test_cross_module_helper_chain(self):
        helper = (
            "from numpy import absolute as mag\n"
            "def magnitudes(w: list) -> object:\n"
            "    return mag(w)\n"
        )
        backend = (
            "from ..helpers import magnitudes\n"
            "def norm_lanes(w: list) -> object:\n"
            "    return magnitudes(w)\n"
        )
        violations = lint_modules(
            [
                ("src/repro/dd/helpers.py", helper),
                ("src/repro/dd/backends/lanes.py", backend),
            ]
        )
        hits = [v for v in violations if v.rule == "DD007"]
        assert hits
        # Anchored at the banned call in the helper, traced from the
        # backend entry.
        assert hits[0].path == "src/repro/dd/helpers.py"
        assert any("lanes" in step for step in hits[0].trace)

    def test_outside_lane_code_is_not_flagged(self):
        source = (
            "import numpy as np\n"
            "def probabilities(w: list) -> object:\n"
            "    return np.abs(w)\n"
        )
        assert codes(source, "src/repro/obs/metrics.py") == []

    def test_suppression_applies_to_pass_findings(self):
        source = (
            "import numpy as np\n"
            "def norm(w: list) -> object:\n"
            "    return np.hypot(w, w)  # ddlint: ignore[DD007]\n"
        )
        assert codes(source, "src/repro/dd/backends/k.py") == []


class TestDD008Resolution:
    def test_real_imag_views_are_float_lanes(self):
        # Complex128 arrays built for transport, with every arithmetic
        # op on float64 ``.real`` / ``.imag`` views, are not flagged.
        source = (
            "import numpy as np\n"
            "def mul(a: list, b: list) -> object:\n"
            "    an = np.array(a, dtype=np.complex128)\n"
            "    bn = np.array(b, dtype=np.complex128)\n"
            "    return an.real * bn.real - an.imag * bn.imag\n"
        )
        assert codes(source, "src/repro/dd/backends/k.py") == []

    def test_float_dtype_is_not_flagged(self):
        source = (
            "import numpy as np\n"
            "def scale(a: list) -> object:\n"
            "    xs = np.array(a, dtype=np.float64)\n"
            "    return xs * xs\n"
        )
        assert codes(source, "src/repro/dd/backends/k.py") == []

    def test_complex_multiply_is_flagged(self):
        source = (
            "import numpy as np\n"
            "def mul(a: list) -> object:\n"
            "    an = np.array(a, dtype=np.complex128)\n"
            "    return an * an\n"
        )
        assert "DD008" in codes(source, "src/repro/dd/backends/k.py")

    def test_complex_divide_is_flagged(self):
        source = (
            "import numpy as np\n"
            "def div(a: list) -> object:\n"
            "    an = np.array(a, dtype=np.complex128)\n"
            "    return an / 2.0\n"
        )
        assert "DD008" in codes(source, "src/repro/dd/backends/k.py")


class TestDD009Resolution:
    def test_timeout_waits_are_exempt(self):
        source = (
            "import threading\n"
            "class D:\n"
            "    def __init__(self) -> None:\n"
            "        self._lock = threading.RLock()\n"
            "        self._done = threading.Condition(self._lock)\n"
            "    def wait(self, remaining: float) -> None:\n"
            "        with self._done:\n"
            "            self._done.wait(remaining)\n"
        )
        assert codes(source, "src/repro/serve/d.py") == []

    def test_untimed_queue_get_under_lock_is_flagged(self):
        source = (
            "import queue\n"
            "import threading\n"
            "class D:\n"
            "    def __init__(self) -> None:\n"
            "        self._lock = threading.Lock()\n"
            "        self._inbox = queue.Queue()\n"
            "    def pump(self) -> None:\n"
            "        with self._lock:\n"
            "            item = self._inbox.get()\n"
            "            return item\n"
        )
        assert "DD009" in codes(source, "src/repro/serve/d.py")

    def test_timed_queue_get_under_lock_is_exempt(self):
        source = (
            "import queue\n"
            "import threading\n"
            "class D:\n"
            "    def __init__(self) -> None:\n"
            "        self._lock = threading.Lock()\n"
            "        self._inbox = queue.Queue()\n"
            "    def pump(self) -> None:\n"
            "        with self._lock:\n"
            "            return self._inbox.get(timeout=0.1)\n"
        )
        assert codes(source, "src/repro/serve/d.py") == []

    def test_io_outside_lock_is_exempt(self):
        source = (
            "import threading\n"
            "class D:\n"
            "    def __init__(self) -> None:\n"
            "        self._lock = threading.Lock()\n"
            "    def tick(self) -> None:\n"
            "        with self._lock:\n"
            "            payload = 'x'\n"
            "        with open('f', 'w') as fh:\n"
            "            fh.write(payload)\n"
        )
        assert codes(source, "src/repro/serve/d.py") == []

    BASE = (
        "import threading\n"
        "class Service:\n"
        "    def __init__(self) -> None:\n"
        "        self._lock = threading.RLock()\n"
        "    def _park(self) -> None:\n"
        "        with open('f', 'w') as fh:\n"
        "            fh.write('x')\n"
    )

    def test_lock_created_by_a_base_class_is_a_lock(self):
        sub = (
            "from .base import Service\n"
            "class D(Service):\n"
            "    def tick(self) -> None:\n"
            "        with self._lock:\n"
            "            open('f')\n"
        )
        found = lint_modules(
            [("src/repro/serve/base.py", self.BASE),
             ("src/repro/serve/d.py", sub)]
        )
        assert [(v.rule, v.path) for v in found] == [
            ("DD009", "src/repro/serve/d.py")
        ]

    def test_inherited_method_called_under_the_lock_is_followed(self):
        sub = (
            "from .base import Service\n"
            "class D(Service):\n"
            "    def tick(self) -> None:\n"
            "        with self._lock:\n"
            "            self._park()\n"
        )
        found = lint_modules(
            [("src/repro/serve/base.py", self.BASE),
             ("src/repro/serve/d.py", sub)]
        )
        assert [(v.rule, v.path) for v in found] == [
            ("DD009", "src/repro/serve/base.py")
        ]


class TestDD010Resolution:
    def test_print_in_signal_handler_is_flagged(self):
        source = (
            "import signal\n"
            "def install() -> None:\n"
            "    def on_signal(signum: int, frame: object) -> None:\n"
            "        print('drain requested')\n"
            "    signal.signal(signal.SIGTERM, on_signal)\n"
        )
        assert "DD010" in codes(source, "src/repro/serve/s.py")

    def test_os_write_in_signal_handler_is_exempt(self):
        source = (
            "import os\n"
            "import signal\n"
            "def install() -> None:\n"
            "    def on_signal(signum: int, frame: object) -> None:\n"
            "        os.write(2, b'drain requested\\n')\n"
            "    signal.signal(signal.SIGTERM, on_signal)\n"
        )
        assert codes(source, "src/repro/serve/s.py") == []

    def test_handler_hazard_is_found_transitively(self):
        source = (
            "import signal\n"
            "def _announce() -> None:\n"
            "    print('shutting down')\n"
            "def install() -> None:\n"
            "    def on_signal(signum: int, frame: object) -> None:\n"
            "        _announce()\n"
            "    signal.signal(signal.SIGTERM, on_signal)\n"
        )
        assert "DD010" in codes(source, "src/repro/serve/s.py")


class TestDD011Resolution:
    def test_global_rebind_in_worker_is_flagged(self):
        source = (
            "from multiprocessing import get_context\n"
            "STATE = None\n"
            "def _worker() -> None:\n"
            "    global STATE\n"
            "    STATE = 'done'\n"
            "def launch() -> None:\n"
            "    ctx = get_context('fork')\n"
            "    proc = ctx.Process(target=_worker)\n"
            "    proc.start()\n"
        )
        assert "DD011" in codes(source, "src/repro/serve/w.py")

    def test_same_write_outside_worker_is_exempt(self):
        source = (
            "STATE = None\n"
            "def configure() -> None:\n"
            "    global STATE\n"
            "    STATE = 'configured'\n"
        )
        assert codes(source, "src/repro/serve/w.py") == []


class TestDD012Resolution:
    def test_edges_item_write_is_flagged(self):
        source = (
            "def patch(node: object, edge: object) -> None:\n"
            "    node.edges[0] = edge\n"
        )
        found = codes(source, "src/repro/serve/p.py")
        assert "DD012" in found

    def test_sanctioned_modules_are_exempt(self):
        source = (
            "def patch(stats: object) -> None:\n"
            "    stats.achieved_fidelity = 1.0\n"
        )
        assert "DD012" not in codes(source, "src/repro/core/strategies.py")


class TestProjectIndex:
    def test_relative_import_resolution(self):
        project = ProjectIndex.build(
            [
                (
                    "src/repro/dd/backends/lanes.py",
                    "repro.dd.backends.lanes",
                    __import__("ast").parse(
                        "from ..ctable import snap\nfrom . import base\n"
                    ),
                )
            ]
        )
        imports = project.modules["repro.dd.backends.lanes"].imports
        assert imports["snap"] == "repro.dd.ctable.snap"
        assert imports["base"] == "repro.dd.backends.base"

    def test_class_attr_typing_through_methods(self):
        import ast

        source = (
            "import threading\n"
            "class D:\n"
            "    def __init__(self) -> None:\n"
            "        self._lock = threading.Lock()\n"
            "    def use(self) -> None:\n"
            "        with self._lock:\n"
            "            pass\n"
        )
        project = ProjectIndex.build(
            [("src/repro/serve/d.py", "repro.serve.d", ast.parse(source))]
        )
        info = project.classes["repro.serve.d:D"]
        assert info.attrs["_lock"].kind == "lock"


class TestTreeIsClean:
    def test_src_tree_has_zero_dataflow_findings(self):
        """The fixed tree must be clean for DD007-DD012: real findings
        were fixed in this PR, not baselined (ISSUE 8 acceptance)."""
        violations = lint_paths(
            [REPO_ROOT / "src" / "repro"], root=REPO_ROOT
        )
        dataflow = [
            v for v in violations if v.rule in DATAFLOW_RULES
        ]
        assert dataflow == [], "\n".join(
            v.format_verbose() for v in dataflow
        )
