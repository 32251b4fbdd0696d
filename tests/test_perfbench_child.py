"""The benchmark's traced run reads wcikit's module caches by name.

perfbench/child.py reports a cache it cannot find as null, and its traced run
then ends without a valid result; this test fails first instead.
"""

import importlib.util
from pathlib import Path

from wcikit import cli, verify

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def _load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_cache_reports_a_number(capsys):
    child = _load_child()
    for _claim, func, _window, extra in child.CLAIMS:
        getattr(verify, func)(verify.SearchBounds(2, 3, 6, 12), workers=1, **extra)
    assert cli.run(["check", "6/1,2,3"]) == 0
    capsys.readouterr()
    counters = child.cache_counters()
    assert counters
    for key, value in counters.items():
        assert isinstance(value, (int, float)) and not isinstance(value, bool), (key, value)
