"""What a fresh interpreter loads: each command imports only the modules
it runs, and the package resolves its public names on first use.

A start-up import is paid on every CLI call, so a handler that pulls in the
suites or the process pool slows every query by the cost of loading them.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import nslab

SRC = str(Path(nslab.__file__).resolve().parents[1])

# Runs one command, then writes to stderr the names of the loaded modules,
# one per line.
_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
if sys.argv[2:]:
    from nslab.cli import main
    main(sys.argv[2:])
else:
    import nslab
sys.stdout.flush()
sys.stderr.write("\\n".join(sorted(sys.modules)))
"""

HEAVY = {"nslab.harness", "nslab.suites", "concurrent.futures"}


def modules_after(*argv: str, flags: tuple[str, ...] = ()) -> set[str]:
    """Every module a fresh interpreter, started with ``flags``, has loaded
    after running the command ``argv``."""
    done = subprocess.run(
        [sys.executable, *flags, "-c", _PROBE, SRC, *argv],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return set(done.stderr.split())


def loaded_by(*argv: str) -> set[str]:
    """The loaded modules of nslab and of concurrent."""
    return {m for m in modules_after(*argv) if m.split(".")[0] in ("nslab", "concurrent")}


def test_bare_import_loads_no_submodule():
    assert loaded_by() == {"nslab"}


def test_enumerate_loads_only_the_tree():
    assert loaded_by("enumerate", "--genus", "4") == {"nslab", "nslab.cli", "nslab.semigroups"}


def test_enumerate_loads_no_dataclasses():
    """The tree walk builds no ``InvariantRecord``, so ``enumerate`` pays
    neither for ``dataclasses`` nor for the ``inspect`` it loads; without
    ``site`` (whose ``.pth`` hooks may load ``typing``) it loads no
    ``typing`` either."""
    assert not modules_after("enumerate", "--genus", "4") & {"dataclasses", "inspect"}
    bare = modules_after("enumerate", "--genus", "4", flags=("-S",))
    assert not bare & {"dataclasses", "inspect", "typing"}


def test_ideals_loads_no_dataclasses():
    """``RelativeIdeal`` is a hand-written value type, so the ideal calculus
    loads ``dataclasses`` (and the ``inspect`` it loads) only through the
    record classes of the modules that need them."""
    probe = "import sys; sys.path.insert(0, sys.argv[1]); import nslab.ideals; print(*sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe, SRC], capture_output=True, text=True, timeout=120, check=True
    )
    loaded = set(done.stdout.split())
    assert "nslab.ideals" in loaded
    assert not loaded & {"dataclasses", "inspect"}


@pytest.mark.parametrize("command", ["info", "ca", "ideals"])
def test_queries_load_neither_suites_nor_pool(command):
    loaded = loaded_by(command, "3,5,7")
    assert {"nslab.cli", "nslab.semigroups", "nslab.ideals"} <= loaded
    assert not loaded & HEAVY


def test_verify_in_process_loads_no_pool():
    loaded = loaded_by("verify", "--suite", "theoremB", "--max-genus", "2", "--jobs", "1")
    assert {"nslab.harness", "nslab.suites"} <= loaded
    assert not any(m.startswith("concurrent") for m in loaded)


def test_public_names_are_their_modules_objects():
    for name in nslab.__all__:
        module, attr = nslab._WHERE[name]
        assert getattr(nslab, name) is getattr(getattr(nslab, module), attr), name
    assert nslab.sum_ideals is nslab.ideals.sum


def test_dir_lists_all():
    assert set(nslab.__all__) <= set(dir(nslab))
    assert "__version__" in dir(nslab)


def test_submodule_resolves_after_bare_import():
    probe = "import nslab, sys; sys.stdout.write(nslab.semigroups.__name__)"
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r}); {probe}"],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert done.stdout == "nslab.semigroups"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        nslab.no_such_name
    assert not hasattr(nslab, "InternalErrors")


def test_resolved_names_are_not_kept_in_the_package():
    """A replaced module attribute is what the package gives next, so a
    tracer that swaps ``harness.run_suite`` and restores it needs to touch
    no copy in the package."""
    from nslab import harness

    original = harness.run_suite
    assert nslab.run_suite is original
    assert "run_suite" not in vars(nslab)
    try:
        harness.run_suite = stand_in = lambda *a, **k: None
        assert nslab.run_suite is stand_in
    finally:
        harness.run_suite = original
    assert nslab.run_suite is original
