"""Every function in ``src/cdwork`` has a subcommand caller: the four
subcommands run in-process under ``sys.setprofile``, and each ``def``
they never enter must be on the allowlist, with its reason.  A function
that only tests call belongs in the tests."""

import ast
import sys
from pathlib import Path

import cdwork
from cdwork import cli, lanes, quadrature

NEVER_ENTERED = {
    **dict.fromkeys([
        "models.ParametrizedModel.h0_at",
        "models.ParametrizedModel.dh0_dlambda_at",
        "models.ParametrizedModel.coupling_rows",
        "models.ParametrizedModel.h1_at",
        "models.ParametrizedModel.evolve_block",
        "models.ParametrizedModel.commutator",
        "models.ParametrizedModel.apply_h1",
        "models.ParametrizedModel._diagonalize", "ising.dense_model"],
        "the dense generic model route: every subcommand runs the "
        "oscillator's band overrides of these methods, and the tests "
        "build dense models on them"),
    **dict.fromkeys(["oscillator._numpy_openblas", "oscillator._resolve_stevd"],
                    "runs at import, before the profile hook is set"),
    **dict.fromkeys(["lanes._two_cpus", "lanes._run_lane",
                     "lanes._run_forked"],
                    "the forked lanes: patched out here so that lane B is "
                    "profiled in-process; the lane tests of test_verify and "
                    "test_figures cover them"),
}


def package_defs():
    """{(source path, first line of its code): qualified name} for every
    def in the package; a decorated function's code starts at its first
    decorator."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min(d.lineno for d in [child, *child.decorator_list])
                found[(str(path), first)] = f"{path.stem}.{name}"
                walk(child, path, name + ".<locals>.")
            else:
                walk(child, path, prefix + child.name + "."
                     if isinstance(child, ast.ClassDef) else prefix)

    for path in Path(cdwork.__file__).resolve().parent.glob("*.py"):
        walk(ast.parse(path.read_text()), path, "")
    return found


def test_every_function_has_a_subcommand_caller(monkeypatch, tmp_path):
    monkeypatch.setattr(lanes, "_two_cpus", lambda: False)
    # a memo that earlier tests filled would hide its function's calls
    quadrature._cc_weights.cache_clear()
    codes = set()
    sys.setprofile(lambda frame, event, arg: event == "call"
                   and codes.add(frame.f_code))
    try:
        exits = [cli.main([*argv, "--out", str(tmp_path / argv[0])])
                 for argv in (["ho-figure1", "--grid", "81", "--tau-list",
                               "0.4,0.8,1.2"],
                              ["ising-figure2", "--grid", "41"],
                              ["ion-waveforms", "--grid", "41"],
                              ["verify", "--chain-samples", "1"])]
    finally:
        sys.setprofile(None)
    assert exits == [0, 0, 0, 0]
    entered = {(str(Path(code.co_filename).resolve()), code.co_firstlineno)
               for code in codes}
    never = {name for key, name in package_defs().items()
             if key not in entered}
    assert never == set(NEVER_ENTERED)
