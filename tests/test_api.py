from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import zeta3cf
from zeta3cf import K, Convergent, FlatCF, Level, Poly, PolyMobius, Stage, Target, flatten, lookup
from zeta3cf.mobius import DegenerateMobius
from zeta3cf.stages import perturbed


def test_all_names_resolve():
    missing = [name for name in zeta3cf.__all__ if not hasattr(zeta3cf, name)]
    assert missing == []
    assert len(set(zeta3cf.__all__)) == len(zeta3cf.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from zeta3cf import *", namespace)
    assert set(zeta3cf.__all__) <= set(namespace)


def test_cli_and_catalog_import_no_dataclasses_typing_or_json():
    # Every CLI call pays for the import graph, so it leaves out these
    # modules; only json output imports json.
    script = (
        "import io, sys\n"
        "import zeta3cf.cli\n"
        "from zeta3cf import stages\n"
        "stages.catalog()\n"
        "heavy = {'dataclasses', 'inspect', 'typing', 'json'}\n"
        "assert not heavy & set(sys.modules), heavy & set(sys.modules)\n"
        "argv = ['ref', '--digits', '5', '--format', 'json']\n"
        "assert zeta3cf.cli.main(argv, out=io.StringIO()) == 0\n"
        "assert heavy & set(sys.modules) == {'json'}, heavy & set(sys.modules)\n"
    )
    src = str(Path(zeta3cf.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr


def test_library_import_loads_no_cli_or_argparse():
    # zeta3cf.cli builds its parser at import; a library user pays for none of it.
    src = str(Path(zeta3cf.__file__).resolve().parents[1])
    script = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "before = set(sys.modules)\n"
        "import zeta3cf\n"
        "cli = {'zeta3cf.cli', 'argparse', 'gettext', 'locale'}\n"
        "assert not cli & (set(sys.modules) - before), cli & set(sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-I", "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_value_types_keep_repr_equality_and_invariants():
    # Each expected text and outcome was recorded before these types became
    # namedtuple records, when they were frozen dataclasses.
    assert repr(Convergent(3, 5, 7)) == "Convergent(n=3, p=5, q=7)"
    assert repr(Level(K + 1, 2)) == "Level(b=Poly(k+1), a=Poly(2))"
    assert repr(PolyMobius(2 * K, 4, 0, 2)) == "PolyMobius[[k, 2], [0, 1]]"
    first = Stage("S", PolyMobius(K, 1, 1, 0), PolyMobius(2, 1, 1, 0), Target.ZETA3, note="x")
    second = Stage("S", PolyMobius(2 * K, 2, 2, 0), PolyMobius(4, 2, 2, 0), Target.ZETA3, note="x")
    assert first is not second and first == second and hash(first) == hash(second)
    assert first != Stage("S", first.step, first.head, Target.ZETA3, note="y")
    assert pickle.loads(pickle.dumps(first)) == first
    assert repr(first) == (
        "Stage(name='S', step=PolyMobius[[k, 1], [1, 0]], head=PolyMobius[[2, 1], [1, 0]],"
        " target=<Target.ZETA3: 1>, levels=None, kind='claimed', note='x')"
    )
    flat = flatten(lookup("APERY"))
    for value, field in ((K, "nums"), (first, "note"), (first.step, "a"), (flat, "b0")):
        with pytest.raises(AttributeError):
            setattr(value, field, 1)
        with pytest.raises(TypeError):
            vars(value)
        for route in (pickle.loads(pickle.dumps(value)), copy.copy(value)):
            assert type(route) is type(value) and route == value
    for build in (lambda: Level(K, 0), lambda: Level(K, 1)._replace(a=0)):
        with pytest.raises(ValueError, match="zero partial numerator"):
            build()
    # _make, _replace and the constructor build the same normal form.
    assert Poly._make([(1, 0)]) == Poly([1]) and Poly._make([(1, 0)]).nums == (1,)
    assert first.step._replace(a=2 * K, b=2, c=2) == first.step
    assert PolyMobius._make([-K, 0, 0, 1]) == PolyMobius(K, 0, 0, -1)
    with pytest.raises(DegenerateMobius):
        PolyMobius._make([1, 1, 1, 1])
    for build in (
        lambda: Stage("bad", PolyMobius(K, 1, 1, 0), PolyMobius(K, 1, 1, 0), Target.ZETA3),
        lambda: first._replace(head=first.step),
    ):
        with pytest.raises(ValueError, match="head entries must be constant"):
            build()
    assert FlatCF._make(["T", 1, 1, (K,), (K,)]).exceptions == {}


def test_perturbed_leaves_the_original_exceptions_unchanged():
    flat = flatten(lookup("APERY"))
    # Re-recorded when the a1 field went: it kept a copy of a_1 that
    # perturbed() left stale (12 beside a_term(1) == 13).
    assert repr(flat) == (
        "FlatCF(name='APERY', b0=Fraction(0, 1), period=1, b_fam=(Poly(34k^3+51k^2+27k+5),),"
        " a_fam=(Poly(-k^6),), exceptions={1: Fraction(12, 1)})"
    )
    bumped = perturbed(flat, 1, 1)
    assert flat.exceptions == {1: 12} and bumped.exceptions == {1: 13}
    assert bumped.a_term(1) == 13
    assert bumped != flat and bumped._replace(exceptions={1: 12}) == flat
    # No shared default map: each fraction built without exceptions has its own.
    plain = [FlatCF("T", Fraction(1), 1, (K,), (Poly.const(1),)) for _ in range(2)]
    assert plain[0].exceptions == {} and plain[0].exceptions is not plain[1].exceptions
