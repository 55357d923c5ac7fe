"""Module layout rules for the package sources."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "frontals"


def test_no_private_names_imported_across_modules():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [
                    f"{path.name}:{node.lineno} imports {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []


def test_benchmark_traced_names_exist():
    # the benchmark's tracer wraps each "<module>.<attr path>" of SPANS
    # in bench/tracing.py; a moved or deleted name would break its runs
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for target in sorted(t for ts in tracing.SPANS.values() for t in ts):
        module, *path = target.split(".")
        owner = importlib.import_module(f"frontals.{module}")
        for attr in path:
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(target)
    assert missing == []


def test_cli_binds_adapted_frame_at_module_level():
    # the tracer times the CLI's frame builds through this binding
    cli = importlib.import_module("frontals.cli")
    frames = importlib.import_module("frontals.frames")
    assert cli.adapted_frame is frames.adapted_frame


def test_no_unused_sibling_imports():
    # the package's __init__ imports its public names to re-export them
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        offenders += [
            f"{path.name}:{node.lineno} imports {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names
            if (alias.asname or alias.name) not in used
        ]
    assert offenders == []


def test_frame_objects_are_not_passed_with_their_curve_or_grid():
    # an AdaptedFrame, ParallelFields or GridRecord carries its curve and
    # grid; a function taking one reads them there. What is built from a
    # frame (its invariants, a sampled map, a directrix) is derived by the
    # function that needs it, never passed back in
    carriers = {"AdaptedFrame", "ParallelFields", "GridRecord"}
    derived = {"InvariantProfile", "BishopInvariants", "SurfaceGrid",
               "Directrix"}
    offenders = []
    for name in ("frames.py", "surfaces.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name[0] == "_":
                continue
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            annotations = {ast.unparse(a.annotation) for a in args
                           if a.annotation is not None}
            names = {a.arg for a in args}
            if annotations & carriers and (names & {"curve", "t_grid"}
                                           or "Curve" in annotations):
                offenders.append(f"{name}: {node.name}")
            if annotations & derived:
                offenders.append(f"{name}: {node.name} takes "
                                 f"{sorted(annotations & derived)}")
    assert offenders == []


def test_one_rank_rule():
    # the ruled-map sampler takes its singular values in closed form, and
    # only linalg turns singular values into a rank by the tol * smax rule
    surfaces = ast.parse((SRC / "surfaces.py").read_text(encoding="utf-8"))
    svd_calls = [node.lineno for node in ast.walk(surfaces)
                 if isinstance(node, ast.Attribute) and node.attr == "svd"]
    assert svd_calls == []
    thresholds = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        thresholds += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and {ast.unparse(node.left), ast.unparse(node.right)}
            == {"tol", "smax"}
        ]
    assert len(thresholds) == 1 and thresholds[0].startswith("linalg.py:")


def test_no_per_node_jet_calls():
    # the tangent and frame modules take curve jets over whole grids: no
    # .jets( call sits in a loop or a comprehension there
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    offenders = []
    for name in ("frontal.py", "frames.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        offenders += [
            f"{name}:{node.lineno}"
            for loop in ast.walk(tree) if isinstance(loop, loops)
            for node in ast.walk(loop)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "jets"
        ]
    assert offenders == []


def _mentions_kappa(node) -> bool:
    return any("kappa" in name and name != "zero_kappa"
               for sub in ast.walk(node)
               for name in (getattr(sub, "id", ""), getattr(sub, "attr", "")))


def test_one_kappa_rule():
    # only frames.zero_kappa decides that kappa = |tau'| is zero to
    # rounding; elsewhere kappa is compared with an exact 0 at most
    retired = ("_STRAIGHT_KAPPA", "_INFLECTION_KAPPA",
               "DEFAULT_INFLECTION_REL_TOL", "inflection_rel_tol")
    offenders, rule = [], []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        offenders += [f"{path.name} names {name}" for name in retired
                      if name in text]
        tree = ast.parse(text, filename=str(path))
        inside = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef)
                  and fn.name == "zero_kappa" for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            if not any(_mentions_kappa(op) for op in operands):
                continue
            if id(node) in inside:
                rule.append(f"{path.name}:{node.lineno}")
                continue
            others = [op for op in operands if not _mentions_kappa(op)]
            exact_zero = (len(others) == len(operands) - 1 and all(
                isinstance(op, ast.Constant) and op.value == 0
                for op in others))
            if not exact_zero:
                offenders.append(f"{path.name}:{node.lineno} compares kappa")
    assert offenders == []
    assert len(rule) == 1 and rule[0].startswith("frames.py:")


def test_one_curve_evaluator():
    # a curve is evaluated only as jets, a point being the value row of an
    # order-0 jet: no float evaluator of expressions, and every method of
    # a curve class that takes parameter values is a jets method
    offenders = [path.name for path in sorted(SRC.glob("*.py"))
                 if "eval_real" in path.read_text(encoding="utf-8")]
    tree = ast.parse((SRC / "curves.py").read_text(encoding="utf-8"))
    evaluators = {
        f"{cls.name}.{fn.name}"
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for fn in cls.body if isinstance(fn, ast.FunctionDef)
        if {a.arg for a in fn.args.args} & {"t", "t0", "ts"}
    }
    assert offenders == []
    assert evaluators == {"Curve.jets", "ExprCurve.jets", "CallableCurve.jets"}


def test_no_lapack_qr_in_the_package():
    # every orthonormal frame comes from linalg.gram_schmidt, whose bytes
    # do not depend on the BLAS kernel; LAPACK's QR is a test oracle only
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr == "qr")
            or (isinstance(node, ast.ImportFrom)
                and any(alias.name == "qr" for alias in node.names))
        ]
    assert offenders == []
