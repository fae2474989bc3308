"""Every ``raise IntegrityError`` in src/lapgap has a test that makes it fire.

The sites are found with ``ast`` and named (module, function, ordinal): the
function is qualified by its class, and the ordinal counts the function's
sites in source order from 0.  SITES maps each one to the test that injects
a fault and matches the message with ``pytest.raises(IntegrityError,
match=...)``.  A site without a row, a row without a site, or a row naming
a test that does not exist or does not match the message fails here.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SITES = {
    ("bounds", "spectral_gap_bound", 0):
        "test_bounds.py::test_gershgorin_off_the_degree_row_bound_raises",
    ("bounds", "spectral_gap_bound", 1): "test_bounds.py::test_bound_above_the_row_bound_raises",
    ("bounds", "spectral_gap_bound", 2): "test_bounds.py::test_mu_below_gershgorin_raises",
    ("bounds", "vanishing_threshold", 0):
        "test_bounds.py::test_nonzero_betti_from_k_min_up_raises",
    ("extremal", "_at_target", 0):
        "test_extremal.py::test_verify_z_family_decides_each_mu_exactly",
    ("extremal", "_at_target", 1):
        "test_extremal.py::test_equality_is_decided_exactly_and_checks_the_eigensolve",
    ("extremal", "equality_case_check", 0):
        "test_extremal.py::test_equality_without_an_isomorphism_raises",
    ("extremal", "_verify_hit", 0):
        "test_extremal.py::test_a_screen_the_fresh_laplacian_contradicts_raises",
    ("extremal", "_Screen.equalities", 0): "test_extremal.py::test_one_screen_serves_every_mode",
    ("operators", "laplacian", 0): "test_hodge.py::test_non_integral_product_raises",
    ("spectral", "spectral_gap", 0): "test_spectral.py::test_negative_eigenvalue_raises",
    ("spectral", "balanced_kernel", 0): "test_spectral.py::test_balanced_kernel_checks_its_vectors",
    ("spectral", "betti", 0): "test_spectral.py::test_kernel_count_off_the_field_rank_raises",
}


def _names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


class _Sites(ast.NodeVisitor):
    def __init__(self, module: str) -> None:
        self.module, self.scope, self.found = module, [], Counter()

    def _enter(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def visit_Raise(self, node: ast.Raise) -> None:
        if node.exc is not None and "IntegrityError" in _names(node.exc):
            self.found[(self.module, ".".join(self.scope))] += 1


def integrity_sites() -> set[tuple[str, str, int]]:
    out = set()
    for path in sorted((ROOT / "src" / "lapgap").glob("*.py")):
        sites = _Sites(path.stem)
        sites.visit(ast.parse(path.read_text(encoding="utf-8")))
        out |= {(m, f, i) for (m, f), count in sites.found.items() for i in range(count)}
    return out


def _fires(test: ast.FunctionDef) -> bool:
    """Whether the test holds ``pytest.raises(IntegrityError, match=...)``."""
    return any(
        isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "raises"
        and n.args and _names(n.args[0]) == {"IntegrityError"}
        and any(kw.arg == "match" for kw in n.keywords)
        for n in ast.walk(test)
    )


def test_every_site_has_a_row_and_every_row_a_site():
    sites = integrity_sites()
    assert sorted(sites - SITES.keys()) == [], "a raise IntegrityError site has no test in SITES"
    assert sorted(SITES.keys() - sites) == [], "a row of SITES names no raise IntegrityError site"


def test_every_named_test_makes_its_site_fire():
    for site, name in SITES.items():
        file, func = name.split("::")
        tree = ast.parse((ROOT / "tests" / file).read_text(encoding="utf-8"))
        tests = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
        assert func in tests, f"{site}: no test {name}"
        assert _fires(tests[func]), f"{site}: {name} has no pytest.raises(IntegrityError, match=...)"
