"""The package surface: every exported name resolves."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import gausslink

MODULES = sorted(m.name for m in pkgutil.iter_modules(gausslink.__path__))


def test_modules_found():
    assert {"capacity", "entanglement", "gaussian", "swap", "teleport", "transducer"} <= set(MODULES)


@pytest.mark.parametrize("name", ["gausslink"] + [f"gausslink.{m}" for m in MODULES])
def test_star_import_resolves_every_exported_name(name):
    exported = getattr(importlib.import_module(name), "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    # raises AttributeError for a name in __all__ that the module lacks
    exec(f"from {name} import *", {})


def test_readme_quick_start_gives_the_values_it_states():
    # a name the README shows but the package renamed or dropped fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    scope, shown = {}, []  # shown: the values of the bare expressions, in order
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            shown.append(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), scope))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), scope)
    q_lb, e_f, boundary = shown
    form, channel, best = scope["form"], scope["channel"], scope["best"]
    assert (form.u, form.v, form.w) == pytest.approx((17, 9, 12), rel=1e-12)
    assert channel.kind == "thermal_amplification"
    assert channel.eta == pytest.approx(16 / 9, rel=1e-12)
    assert q_lb == pytest.approx(4 / 7, rel=1e-12)
    assert best.q_lb_opt > q_lb
    assert e_f == pytest.approx(1.784, abs=5e-4)
    assert boundary == pytest.approx(1.4571, abs=5e-5)
