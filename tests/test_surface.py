"""The library names the benchmark looks up and wraps.

The benchmark (`benchmarks/`) calls these names through `selfcal`,
`selfcal.crlb` and `selfcal.harness`, and times the stages by wrapping
them where `selfcal.harness` looks them up. Its tracer skips a missing
name without a word, so deleting or renaming one, or calling it past the
harness namespace, would zero a per-layer span and still pass every
other check. The sweep's stages are its batch kernels, each run on
both of the sweep's threads, in the order a batch calls them:
`draw_noise` (each chunk's collapsed noise), `draw_gain_batch` (each
chunk's phases, then the gains of the whole batch), `add_gain_products`
(the noiseless observations of the whole batch), `ml_estimate_batch`
and `mean_sq_errors`. The single-trial calls (`draw_gains`, `synthesize`,
`ml_estimate`, `estimation_error`) serve the CLI and tests, so
`selfcal.harness` does not import them. Prop 2 colors one labeling of
every rooted shape that `enumerate_shapes` yields, one shape at a time
(`color_lines`), and checks the colorings against the shapes' lines as
one block.
`measurement_schedule` colors the wiring's cached walk with
`color_lines`; `schedule_violations` checks any schedule against one
wiring with sets and counts. Props 1 and 3 read each shape's mean
distance and degree off its level sequence. The batch kernels,
`color_lines` and `enumerate_shapes` are listed although the benchmark
does not wrap them yet: the verify and sweep functions look them up in
`selfcal.harness`, where a tracer can wrap them.

Every other module-level name has a caller in `src/` too, or is public
API, so no helper is kept alive by tests alone. A wiring's facts are
`Topology` properties, so no module-level function only hands one on.
numpy is the only runtime dependency: every import in `src/` is of the
standard library, numpy or the package itself, and numpy is the one
dependency `pyproject.toml` declares.
"""

import ast
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

import selfcal
from selfcal import crlb, harness

SURFACE = {
    harness: (
        "ExperimentConfig", "resolve_topology", "run_snr_sweep",
        "sweep_rows_to_csv", "verify_star_optimality", "verify_time_bounds",
        "verify_daisy_optimality", "crlb_closed_form",
        "budgeted_average_crlb", "enumerate_shapes", "color_lines",
        "draw_noise", "draw_gain_batch", "add_gain_products",
        "ml_estimate_batch", "mean_sq_errors",
    ),
    crlb: ("ScenarioParams", "fisher_matrix", "crlb_numeric",
           "crlb_closed_form"),
    selfcal: ("make_star", "make_daisy", "from_edges", "RfGains"),
}


def _sweep(budget_mode, budget_value):
    return lambda: harness.run_snr_sweep(harness.ExperimentConfig(
        m=5, reference=3, snr_grid_db=(30.0,), trials=2,
        budget_mode=budget_mode, budget_value=budget_value))


#: what each entry point must look up in `selfcal.harness` when it runs,
#: so that wrapping the name there sees every call
SWEEP_STAGES = {"draw_noise", "draw_gain_batch", "add_gain_products",
                "ml_estimate_batch", "mean_sq_errors"}
CALLS_THROUGH_HARNESS = {
    "sweep": (_sweep("measurements", None),
              {"crlb_closed_form"} | SWEEP_STAGES),
    "budgeted_sweep": (_sweep("time", 8.0),
                       {"budgeted_average_crlb"} | SWEEP_STAGES),
    "verify_star_optimality": (
        lambda: harness.verify_star_optimality(4),
        {"enumerate_shapes"}),
    "verify_time_bounds": (
        lambda: harness.verify_time_bounds(4),
        {"enumerate_shapes", "color_lines"}),
    "verify_daisy_optimality": (
        lambda: harness.verify_daisy_optimality((3, 4)),
        {"enumerate_shapes"}),
}


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in SURFACE.items() for name in names
], ids=lambda x: getattr(x, "__name__", x))
def test_name_exists_and_is_callable(module, name):
    assert callable(getattr(module, name, None))


@pytest.mark.parametrize("entry", CALLS_THROUGH_HARNESS)
def test_stages_are_looked_up_in_harness(monkeypatch, entry):
    run, names = CALLS_THROUGH_HARNESS[entry]
    called = set()

    def counted(name, f):
        def wrapper(*args, **kwargs):
            called.add(name)
            return f(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(harness, name,
                            counted(name, getattr(harness, name)))
    run()
    assert called == names


def _defined(stmt: ast.stmt) -> list[str]:
    """Names a module-level def, class or assignment binds, dunders
    excepted."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [
            stmt.target]
        names = [node.id for target in targets for node in ast.walk(target)
                 if isinstance(node, ast.Name)]
    else:
        names = []
    return [name for name in names
            if not (name.startswith("__") and name.endswith("__"))]


def _referenced(stmt: ast.stmt) -> Counter:
    """Names a statement reads, attributes it looks up and names it
    imports; imports by `selfcal/__init__.py` are the public API."""
    return Counter(
        node.id if isinstance(node, ast.Name)
        else node.attr if isinstance(node, ast.Attribute) else node.name
        for node in ast.walk(stmt)
        if isinstance(node, (ast.Attribute, ast.alias))
        or (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)))


def _module_statements() -> list[tuple[str, ast.stmt]]:
    """(module name, statement) for every top-level statement in `src/`."""
    return [(path.stem, stmt)
            for path in sorted(Path(selfcal.__file__).parent.glob("*.py"))
            for stmt in ast.parse(path.read_text(encoding="utf-8")).body]


def test_every_module_name_has_a_caller_in_src():
    statements = [(module, stmt, _referenced(stmt))
                  for module, stmt in _module_statements()]
    uses = Counter()
    for _, _, referenced in statements:
        uses.update(referenced)
    # a name is called when it is referenced outside its own definition
    uncalled = [f"{module}.{name}" for module, stmt, own in statements
                for name in _defined(stmt) if uses[name] == own[name]]
    assert uncalled == []


def _hands_on_an_attribute(stmt: ast.stmt) -> bool:
    """Whether `stmt` is a def whose body, docstring aside, is one
    `return <parameter>.<attribute>`."""
    if not isinstance(stmt, ast.FunctionDef):
        return False
    body = stmt.body[1:] if ast.get_docstring(stmt) is not None else stmt.body
    args = stmt.args
    params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    return (len(body) == 1 and isinstance(body[0], ast.Return)
            and isinstance(body[0].value, ast.Attribute)
            and isinstance(body[0].value.value, ast.Name)
            and body[0].value.value.id in params)


def test_no_module_function_only_reads_an_attribute():
    wrappers = [f"{module}.{stmt.name}" for module, stmt in
                _module_statements() if _hands_on_an_attribute(stmt)]
    assert wrappers == []


def test_every_import_is_stdlib_numpy_or_the_package():
    # imports inside functions count too, as `concurrent.futures` in
    # the sweep helper
    allowed = set(sys.stdlib_module_names) | {"numpy", "selfcal"}
    outside = []
    for module, stmt in _module_statements():
        for node in ast.walk(stmt):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:  # not an import, or a relative one of the package
                continue
            outside += [f"{module}: {name}" for name in names
                        if name.partition(".")[0] not in allowed]
    assert outside == []


def test_numpy_is_the_only_declared_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9._-]+", spec).group()
            for spec in dependencies] == ["numpy"]
