"""Source-layout guards.

Family-specific decisions live in families.py: every choice that differs
between families goes through the family's lattice kind or through data its
builder sets, so no module compares a `.name` attribute and no module but
families.py spells a family name.

sigma, Theta and the ladder coefficients have one implementation: the
library evaluates them on `StencilGrid` and `LatticeTable` arrays, and the
point-by-point evaluators live in tests/pointwise.py as the reference, so
no library module defines, imports or reads one.  The same holds for the
per-n products, monic values, closed-form accessors, module-level table
twins and operator objects that only the tests use.

Each quantity has one owner: phi_n lives on `FamilySpec`, B_n is the
family's table entry `coeffs.B`, the Pearson weight is a plain sequence and
P_n by the recurrence is `FamilySpec.pn_stack` on arrays.  rho with its
per-point refusal (NaN where the weight raises) is `FamilySpec.rho_at_s`,
and the positive-real rule sits beside `sqrt_rho`; the grid steps Delta x,
nabla x and Delta x(s-1/2) are read from a `LatticeTable`, and the scalar
steps live in tests/pointwise.py.  So the wrappers, scalar forks and second
routes they replaced stay out of the library.  (a;q)_inf has one route for
numbers and arrays, so no module groups factors with `reduceat`.

A suite's report has one maker, `report.suite`: the suite modules neither
build a CheckReport nor mark one skipped.

The lattice kind owns the measure: a family gives only its bounds, so no
module but families.py spells a measure's label, and none reads a support
kind (`.support.kind`).

Each family is stated once: `make_family` alone builds a `FamilySpec`, with
the name, parameters and base the registry gives, so no builder restates
them; a builder gives its series' prefactor and parameters, and
`FamilySpec.pn_series` is the one caller of `basic_hypergeometric`.

Every H, L+ and L- stencil is summed by `StencilGrid.apply`, the reduced
form included, so the reduced-stencil and bootstrap-table helpers it
replaced stay out; the quadrature takes one integrand, so the constant
second factor `_one` does too.

A report keeps its cases as columns: no library module constructs a
`CaseRecord` (the read-only `CheckReport.cases` view makes them for readers
with `CaseRecord._make`), and `report.dumps_reports` is the one encoder of
check reports: no other library module reads a report's cases or columns,
and the check command writes its JSON through it.  The dict-per-report
encoder it replaced lives in tests/pointwise.py as its reference.

A family's cache is its own: no library module but families.py names
`_cache`.  Other modules reach a kept value through `FamilySpec.cached`, and
what the cache keeps (the per-n table, the stencil grids) takes the family's
data, not the family, so no reference cycle runs through it.

A suite body runs under one floating-point policy, set by `report.suite`:
every `np.errstate` in the library is the item of a `with` block, so none
decorates a function or is kept as a value, and `report.suite` is the one
place that sets a policy around a suite.
"""

import ast
import pathlib

from qladder import families

SRC = pathlib.Path(families.__file__).parent
MODULES = sorted(SRC.glob("*.py"))
FAMILY_STRINGS = set(families.FAMILY_NAMES) | set(families._ALIASES)
POINTWISE_ONLY = {"sigma_eval", "theta_eval", "tau_eval", "sigma_over_nabla",
                  "theta_over_delta", "check_poly_raising", "check_poly_lowering"}
TEST_ONLY = {"mu_k", "a_nk", "leading_coeff", "ttrr_coeffs_generic", "pn_monic",
             "lambda_closed", "lam_tau_ratio", "ThreePointOperator",
             "apply_scaled", "_apply_scaled", "apply_reduced", "ladder_bootstrap", "h_pair",
             "continuous_inner_aw", "report_to_dict"}
REMOVED = {"OrthonormalFamily", "WeightTable", "B_n", "_B_from_leading", "weight_at",
           "family_names", "phi_point", "_CMATH_LOG", "SeriesSpec", "_detect_termination",
           "pn_ttrr", "pn_ttrr_x", "_complex", "_scalar_or_array", "_phi_pointwise_ok",
           "_over_n", "_d_column", "_entry", "_memo", "SupportSpec", "norm_source",
           "_compute_norm_sq", "_rho_or_nan", "_positive_real", "delta_x", "nabla_x",
           "_q_pochhammer_inf_array", "_aw_equation_data", "reduceat", "_reduced",
           "_bootstrap", "_one", "monic_rows", "_branch_consistent", "_RAISE_FP",
           "_require_links"}
SUPPORT_LABELS = {"discrete_grid", "jackson_integral", "continuous_interval"}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_modules_found():
    assert {p.name for p in MODULES} >= {"families.py", "checks.py", "ladder.py", "cli.py"}


def test_no_comparison_on_a_name_attribute():
    found = []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Compare):
                for operand in (node.left, *node.comparators):
                    if isinstance(operand, ast.Attribute) and operand.attr == "name":
                        found.append(f"{path.name}:{node.lineno}")
    assert not found, f".name compared at {found}"


def test_family_names_spelled_only_in_families_module():
    found = []
    for path in MODULES:
        if path.name == "families.py":
            continue
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Constant) and node.value in FAMILY_STRINGS:
                found.append(f"{path.name}:{node.lineno} {node.value!r}")
    assert not found, f"family names outside families.py: {found}"


def _names(node):
    """The names a node defines, imports or reads."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.alias):
        return [node.name, node.asname]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Constant):  # __all__ entries, getattr strings
        return [node.value]
    return []


def test_no_module_defines_or_imports_a_pointwise_evaluator():
    found = []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            for name in _names(node):
                if name in POINTWISE_ONLY:
                    found.append(f"{path.name}:{getattr(node, 'lineno', '?')} {name}")
    assert not found, f"point-by-point evaluators in the library: {found}"


def test_no_module_defines_or_reads_a_test_only_name():
    found = []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            for name in _names(node):
                if name in TEST_ONLY:
                    found.append(f"{path.name}:{getattr(node, 'lineno', '?')} {name}")
    assert not found, f"test-only code in the library: {found}"


def test_no_module_defines_or_reads_a_removed_route():
    found = []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            for name in _names(node):
                if name in REMOVED:
                    found.append(f"{path.name}:{getattr(node, 'lineno', '?')} {name}")
    assert not found, f"removed wrappers or second routes in the library: {found}"


def test_suite_modules_leave_the_report_to_its_maker():
    found = []
    for path in (SRC / "ladder.py", SRC / "checks.py"):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Call) and "CheckReport" in _names(node.func):
                found.append(f"{path.name}:{node.lineno} CheckReport(")
            if (isinstance(node, ast.Constant) and node.value == "status"
                    or isinstance(node, ast.keyword) and node.arg == "status"):
                found.append(f"{path.name}:{node.lineno} status")
    assert not found, f"reports made or marked outside report.suite: {found}"


def test_measure_labels_spelled_only_in_families_module():
    found = []
    for path in MODULES:
        tree = _tree(path)
        # `__all__` names the function jackson_integral, not the label
        exports = {id(c) for node in tree.body if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                   for c in ast.walk(node.value)}
        for node in ast.walk(tree):
            if (path.name != "families.py" and isinstance(node, ast.Constant)
                    and node.value in SUPPORT_LABELS and id(node) not in exports):
                found.append(f"{path.name}:{node.lineno} {node.value!r}")
            if (isinstance(node, ast.Attribute) and node.attr == "kind"
                    and isinstance(node.value, ast.Attribute) and node.value.attr == "support"):
                found.append(f"{path.name}:{node.lineno} .support.kind")
    assert not found, f"support kinds read outside the lattice kind: {found}"


def _call_sites(path, callee):
    """The enclosing definition (dotted, as Class.method or outer.inner) of
    each call of `callee` in `path`; "" at module level."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Call) and callee in _names(child.func):
                sites.append(scope)
            visit(child, scope)

    visit(_tree(path), "")
    return sites


def test_one_call_of_the_series_kernel_makes_p_n():
    assert _call_sites(SRC / "families.py", "basic_hypergeometric") == ["FamilySpec.pn_series"]


def test_only_make_family_builds_a_family_spec():
    # so no builder names its family or restates its parameters or base
    assert _call_sites(SRC / "families.py", "FamilySpec") == ["make_family"]


def test_no_module_constructs_a_case_record():
    found = [f"{path.name}:{node.lineno}" for path in MODULES for node in ast.walk(_tree(path))
             if isinstance(node, ast.Call) and "CaseRecord" in _names(node.func)]
    assert not found, f"CaseRecord( in the library: {found}"


def test_dumps_reports_is_the_one_encoder_of_check_reports():
    readers = [f"{path.name}:{node.lineno} .{node.attr}" for path in MODULES
               if path.name != "report.py" for node in ast.walk(_tree(path))
               if isinstance(node, ast.Attribute) and node.attr in ("cases", "_case_columns")]
    assert not readers, f"a report's cases read outside report.py: {readers}"
    assert set(_call_sites(SRC / "report.py", "dumps")) == {"_json_items", "dumps_reports.one"}
    assert _call_sites(SRC / "cli.py", "dumps_reports") == ["cmd_check"]


def test_only_families_module_names_the_family_cache():
    found = [f"{path.name}:{getattr(node, 'lineno', '?')}" for path in MODULES
             if path.name != "families.py" for node in ast.walk(_tree(path))
             if "_cache" in _names(node)]
    assert not found, f"a family's private cache named outside families.py: {found}"


def test_no_library_function_is_decorated_with_an_errstate():
    found = []
    for path in MODULES:
        tree = _tree(path)
        items = {id(item.context_expr) for node in ast.walk(tree) if isinstance(node, ast.With)
                 for item in node.items}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and "errstate" in _names(node.func)
                  and id(node) not in items]
    assert not found, f"np.errstate outside a with block: {found}"
    assert _call_sites(SRC / "report.py", "errstate") == ["suite.make.run"]
