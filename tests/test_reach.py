"""The surface census (``benchmarks/reach/reach.py``) on a toy package."""

import importlib.util
from pathlib import Path

REACH_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "reach" / "reach.py"

TOY = '''
import cProfile

def by_entry(): pass
def by_test_only(): pass
def by_nothing(): pass
def under_own_profile(): pass
def after_own_profile(): pass

class Box:
    @property
    def read(self):
        return 1

def profiles_itself():
    profile = cProfile.Profile()
    profile.enable()
    under_own_profile()
    profile.disable()
    profile.create_stats()  # what pstats does: a second disable()
    after_own_profile()
'''


def load_reach():
    spec = importlib.util.spec_from_file_location("reach", REACH_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_classifies_a_toy_package(tmp_path):
    reach = load_reach()
    package = tmp_path / "toy"
    package.mkdir()
    (package / "__init__.py").write_text(TOY)
    (tmp_path / "entry.py").write_text(
        "import toy\ntoy.by_entry()\ntoy.profiles_itself()\ntoy.Box().read\n"
    )
    (tmp_path / "suite.py").write_text(
        "import toy\ntoy.by_entry()\ntoy.by_test_only()\n"
    )
    out = tmp_path / "out"
    out.mkdir()
    reach.collect(
        [("cli", "entry.py"), ("tests", "suite.py")],
        package, out, tmp_path, str(tmp_path),
    )
    rows = reach.classify(package, out)
    classes = {name: cls for _file, _line, name, _lines, cls in rows}
    assert classes == {
        "by_entry": "cli",
        "by_test_only": "tests-only",
        "by_nothing": "nothing",
        # A caller that enables its own cProfile displaces the collector;
        # what it profiled is taken over, and the collector resumes after.
        "under_own_profile": "cli",
        "after_own_profile": "cli",
        "profiles_itself": "cli",
        # Keyed by the decorator's line, which is where cProfile puts it.
        "Box.read": "cli",
    }
    assert {row[0] for row in rows} == {"toy/__init__.py"}
    assert [row[3] for row in rows if row[2] == "profiles_itself"] == [7]

    keep = "- `toy/__init__.py` `by_nothing` -- an abstract stub.\n"
    assert [row[2] for row in reach.unkept(rows, keep)] == ["by_test_only"]
