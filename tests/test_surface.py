"""Package surface: each top-level name is defined once, every exported
name resolves, every library def has a library reader, no parameter is
only range-checked, every quadrature result is checked, every finite
range is decided in numutil, the package has three exception classes and
one trapezoid rule, one function exponentiates a generator symbol, and
the README example list has one content wherever it is copied. Standard
library only (ast, importlib, re), since no linter is a dependency."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "blowlab"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def parse(stem):
    path = PACKAGE / f"{stem}.py"
    return ast.parse(path.read_text(), filename=str(path))


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def top_level_bindings(tree):
    """Names a module binds at top level: defs, classes, assignments and
    imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, DEFS):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).partition(".")[0]
                         for a in node.names)
    return names


def test_no_top_level_def_or_class_is_bound_twice():
    twice = {}
    for stem in MODULES + ["__init__"]:
        defs = [node.name for node in parse(stem).body
                if isinstance(node, DEFS)]
        twice.update({f"{stem}.{n}": defs.count(n) for n in defs
                      if defs.count(n) > 1})
    assert twice == {}


def test_every_all_entry_resolves():
    unresolved = []
    for stem in MODULES:
        mod = importlib.import_module(f"blowlab.{stem}")
        unresolved += [f"{stem}.{n}" for n in getattr(mod, "__all__", [])
                       if not hasattr(mod, n)]
    assert unresolved == []


def test_init_reexports_only_names_that_exist():
    # read from the sources, so a stale re-export is named even though it
    # would make `import blowlab` itself fail
    gone = [f"{node.module}.{alias.name}"
            for node in parse("__init__").body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and node.module
            for alias in node.names
            if alias.name not in top_level_bindings(parse(node.module))]
    assert gone == []


# waits on ROADMAP item 6, which waits on item 1: bench/tracing.py patches
# asymptotics.quad, so this last quad in asymptotics cannot move into the
# tests before the benchmark counts quad calls where numutil receives them
ONLY_TESTS_CALL = {"asymptotics.K_fractional_at_time"}


def test_every_library_def_has_a_library_reader():
    """No library function whose only caller is a test: each top-level def
    or class in src/blowlab is referenced somewhere in src/blowlab beside
    its own definition line, or re-exported by __init__."""
    trees = {stem: parse(stem) for stem in MODULES + ["__init__"]}
    exported = {alias.asname or alias.name
                for node in trees["__init__"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = {f"{stem}.{node.name}" for stem in MODULES
              for node in trees[stem].body
              if isinstance(node, DEFS) and node.name not in read | exported}
    assert unread == ONLY_TESTS_CALL


def called_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_every_quad_goes_through_the_checker():
    """Each quad(...) passes full_output=1 and is the first argument of
    numutil._quad_result, so a QUADPACK message raises ResolutionError in
    place of a warning; no module silences warnings. The modules call their
    own `quad` binding, which the benchmark's tracer counts per module."""
    bad, callers = [], set()
    for stem in MODULES:
        calls = [node for node in ast.walk(parse(stem))
                 if isinstance(node, ast.Call)]
        checked = {id(c.args[0]) for c in calls
                   if called_name(c) == "_quad_result" and c.args}
        for c in calls:
            if called_name(c) != "quad":
                continue
            callers.add(stem)
            full = any(k.arg == "full_output" and isinstance(k.value, ast.Constant)
                       and k.value.value == 1 for k in c.keywords)
            if not (full and id(c) in checked and isinstance(c.func, ast.Name)):
                bad.append(f"{stem}.py:{c.lineno}")
        text = (PACKAGE / f"{stem}.py").read_text()
        bad += [f"{stem}.py: {word}" for word in ("catch_warnings", "simplefilter")
                if word in text]
    assert bad == []
    assert callers == {"asymptotics", "kernels", "nonlinearity", "stationary"}


# waits on ROADMAP item 1: bench/workloads.py passes probe_radius by keyword,
# so the parameter cannot go before the benchmark changes
ONLY_RANGE_CHECKED = {"stationary.stationary_residual.probe_radius"}


def test_no_parameter_is_only_range_checked():
    """No def in src/blowlab has a parameter whose every read is an argument
    of a _check_* call that stands as a statement: such a parameter is
    checked, then ignored, so it changes no result."""
    found = set()
    for stem in MODULES:
        for fn in ast.walk(parse(stem)):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            checked = {id(arg) for stmt in ast.walk(fn)
                       if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
                       and (called_name(stmt.value) or "").startswith("_check_")
                       for arg in stmt.value.args + [k.value for k in stmt.value.keywords]}
            a = fn.args
            for param in a.posonlyargs + a.args + a.kwonlyargs:
                reads = [n for n in ast.walk(fn) if isinstance(n, ast.Name)
                         and n.id == param.arg and isinstance(n.ctx, ast.Load)]
                if reads and all(id(n) in checked for n in reads):
                    found.add(f"{stem}.{fn.name}.{param.arg}")
    assert found == ONLY_RANGE_CHECKED


def test_the_package_defines_three_exception_classes():
    """DomainError for bad input, ResolutionError for a grid or quadrature
    too coarse for its tolerance, and solver.BlowupSignal, which run
    catches: no other class in src/blowlab derives from an exception."""
    found = {f"{stem}.{node.name}" for stem in MODULES
             for node in parse(stem).body if isinstance(node, ast.ClassDef)
             and issubclass(getattr(importlib.import_module(f"blowlab.{stem}"),
                                    node.name), BaseException)}
    assert found == {"errors.DomainError", "errors.ResolutionError",
                     "solver.BlowupSignal"}
    run = next(node for node in parse("solver").body
               if isinstance(node, ast.FunctionDef) and node.name == "run")
    assert any(isinstance(h, ast.ExceptHandler) and isinstance(h.type, ast.Name)
               and h.type.id == "BlowupSignal" for h in ast.walk(run))


def test_only_norms_calls_a_trapezoid_rule():
    """Sampled radial data integrate by one rule, norms._BallIntegralCurve:
    no other module calls trapezoid or cumulative_trapezoid."""
    callers = {stem for stem in MODULES for node in ast.walk(parse(stem))
               if isinstance(node, ast.Call)
               and called_name(node) in ("trapezoid", "cumulative_trapezoid")}
    assert callers == {"norms"}


def test_range_checks_are_decided_in_numutil():
    """No module but numutil raises DomainError from an `if` whose test
    compares with math.inf: a number's finite range is decided in
    numutil._check_range, with one predicate and one message."""
    bad = []
    for stem in MODULES:
        if stem == "numutil":
            continue
        for node in ast.walk(parse(stem)):
            if not isinstance(node, ast.If):
                continue
            infinite = any(isinstance(n, ast.Attribute) and n.attr == "inf"
                           and isinstance(n.value, ast.Name) and n.value.id == "math"
                           for c in ast.walk(node.test) if isinstance(c, ast.Compare)
                           for n in ast.walk(c))
            raises = any(isinstance(r, ast.Raise) and isinstance(r.exc, ast.Call)
                         and called_name(r.exc) == "DomainError"
                         for stmt in node.body for r in ast.walk(stmt))
            if infinite and raises:
                bad.append(f"{stem}.py:{node.lineno}")
    assert bad == []


def test_readme_examples_are_one_list():
    """The README's example block, the examples the CI workflow runs twice
    and diffs, and the benchmark's README_EXAMPLES (read with ast, so the
    benchmark is not imported) are one list."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("Examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    from_readme = [line.removeprefix("blowlab ") for line in block.splitlines()]
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    ci = re.findall(r'"([^"]*)"', re.search(r"examples=\((.*?)\n\s*\)",
                                            workflow, re.S).group(1))
    bench = next(ast.literal_eval(node.value)
                 for node in ast.parse((ROOT / "bench" / "workloads.py").read_text()).body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["README_EXAMPLES"])
    assert len(from_readme) == 7
    assert from_readme == ci == list(bench)


def symbol_reads(node, held):
    """Whether an expression reads a generator symbol: a call of
    generator_symbol_grid, a name or attribute `sym` (or `sym_...`,
    `..._sym`), or a name in held."""
    for n in ast.walk(node):
        name = (n.id if isinstance(n, ast.Name) else
                n.attr if isinstance(n, ast.Attribute) else None)
        if name in held or (name and re.search(r"(^|_)sym($|_)", name)):
            return True
        if isinstance(n, ast.Call) and called_name(n) == "generator_symbol_grid":
            return True
    return False


def test_only_the_propagator_exponentiates_a_generator_symbol():
    """exp(t*sym), the semigroup's multiplier on the half lattice, is formed
    by kernels._propagator alone: no other def applies np.exp to an
    expression that reads a generator symbol, or to a name that holds one
    that was formed from it (by assignment, or as the out= of a call that
    reads it)."""
    bad = []
    for stem in MODULES:
        for fn in ast.walk(parse(stem)):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    or (stem, fn.name) == ("kernels", "_propagator"):
                continue
            held, grown = set(), True
            while grown:
                size = len(held)
                for n in ast.walk(fn):
                    if isinstance(n, (ast.Assign, ast.AugAssign, ast.AnnAssign)) \
                            and n.value is not None and symbol_reads(n.value, held):
                        targets = n.targets if isinstance(n, ast.Assign) else [n.target]
                        held.update(t.id for target in targets for t in ast.walk(target)
                                    if isinstance(t, ast.Name))
                    elif isinstance(n, ast.Call) and any(
                            symbol_reads(a, held) for a in n.args):
                        held.update(k.value.id for k in n.keywords
                                    if k.arg == "out" and isinstance(k.value, ast.Name))
                grown = len(held) > size
            bad += [f"{stem}.py:{n.lineno}" for n in ast.walk(fn)
                    if isinstance(n, ast.Call) and called_name(n) == "exp"
                    and any(symbol_reads(a, held) for a in n.args)]
    assert bad == []
