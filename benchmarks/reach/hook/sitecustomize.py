"""The collector: ``sitecustomize`` of every process an entry point starts.

One cProfile for the life of the process; at exit, what it saw under
``REACH_ROOT`` goes to ``REACH_OUT/<REACH_CLASS>-<pid>``. A section that
profiles itself (the ledger, ``--profile``, an ablation) would switch an
outer profiler off for good, so ``cProfile.Profile`` hands over to it and
takes back afterwards, keeping what the inner profile saw.
"""

import _lsprof
import atexit
import cProfile
import os

root, seen, base = os.environ["REACH_ROOT"], set(), _lsprof.Profiler
outer, running = cProfile.Profile(), [False]


def run_outer(want):
    if want != running[0]:
        (base.enable if want else base.disable)(outer)
        running[0] = want


def harvest(profile):
    seen.update(
        (os.path.realpath(entry.code.co_filename), entry.code.co_firstlineno)
        for entry in profile.getstats() if not isinstance(entry.code, str)
    )


def enable(self, *args, **kwargs):
    run_outer(False)
    base.enable(self, *args, **kwargs)


def disable(self):
    run_outer(False)  # base.disable clears the thread's profiler, whoever set it
    base.disable(self)
    harvest(self)
    run_outer(True)


def dump():
    run_outer(False)
    harvest(outer)
    name = "%s-%d" % (os.environ["REACH_CLASS"], os.getpid())
    with open(os.path.join(os.environ["REACH_OUT"], name), "a") as handle:
        handle.writelines("%s\t%d\n" % key for key in seen if key[0].startswith(root))


cProfile.Profile.enable, cProfile.Profile.disable = enable, disable
atexit.register(dump)
run_outer(True)
