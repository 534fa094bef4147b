"""Guards on the public API of the library modules (every module but the
CLI): no answer may depend on a seed or a search budget, every public name
is used or listed with its reason, and the names that the benchmark's
tracer wraps exist."""

import ast
import importlib
import importlib.util
import inspect
import pathlib

import pytest

LIBRARY = ("linalg", "algebra", "structure", "homology", "trivext",
           "gorenstein", "morita")
TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "extalg"

# The two closed lists of public names that nothing in src/extalg uses.
# The paper's constructions, kept as the paper states them:
PAPER_API = {
    "syzygy": "Omega^i(M), the syzygies of the Gorenstein statements",
    "functor_T": "T(X) = (X + M ox X, mu), the left adjoint of U on pairs",
    "functor_H": "H(Y) = [Hom(M, Y) + Y, theta], the right adjoint of U",
    "functor_Z_pair": "Z(X) = (X, 0), the pair with zero structure map",
    "functor_Z_copair": "Z(Y) = [Y, 0], the copair with zero structure map",
    "functor_U": "U, the functor forgetting the (co)structure map",
    "classify_projective": "the projective pairs are the T(P)",
    "classify_injective": "the injective copairs are the H(E)",
    "ShortExactSequence.is_exact": "exactness of the paper's sequences",
    "ses_of_pair": "0 -> Z(im alpha) -> (X, alpha) -> Z(coker alpha) -> 0",
    "ses_of_copair": "0 -> Z(ker beta) -> [Y, beta] -> Z(im beta) -> 0",
    "induced_delta": "delta: M ox coker(alpha) -> X of a pair",
    "induced_gamma": "gamma: Y -> Hom(M, ker beta) of a copair",
    "tensor_iso_pair": "Z(W) ox (X, alpha) = W ox coker(alpha)",
    "hom_iso_copair": "Hom(X, ker beta) = Hom(Z(X), [Y, beta])",
    "complete_resolution": "a complete resolution of a module over the "
                           "base",
    "validate_complete_resolution": "the defining checks of a complete "
                                    "resolution, Hom into projectives",
    "theta_co": "the isomorphism from cotuples to copairs",
    "upsilon": "the isomorphism from right tuples to right pairs; it "
               "returns the pair over the opposite extension",
    "upsilon_inverse": "the inverse of upsilon; it returns the tuple over "
                       "the opposite context",
}
# Names that do work no other public name does, for the tests:
TEST_SUPPORT = {
    "Algebra.mult": "the product of two elements; the library multiplies "
                    "through the table",
    "HomSpace.coords": "coordinates of one hom; perfbench/tracer.py wraps it",
    "HomSpace.element": "the hom with given coordinates, for full sweeps",
    "submodule": "submodule on rows not in RREF, the public boundary",
    "chop": "a composition series with its inclusions",
    "injective_envelope": "the envelope with its essential mono",
    "non_minimal_resolution": "a padded resolution; Ext must not change",
    "kron": "the dense Kronecker product, for reference tensor and hom "
            "systems; perfbench/tracer.py wraps it",
}


def _public_functions(mod):
    """(name, function) for the public functions defined in mod and the
    constructors and public methods of its classes."""
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) \
                != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                fn = getattr(member, "__func__", member)
                if inspect.isfunction(fn) and (attr == "__init__"
                                               or not attr.startswith("_")):
                    yield f"{name}.{attr}", fn


@pytest.mark.parametrize("layer", LIBRARY)
def test_no_library_function_takes_a_seed_or_budget(layer):
    mod = importlib.import_module(f"extalg.{layer}")
    found = list(_public_functions(mod))
    assert found
    assert [name for name, fn in found
            if {"seed", "budget"} & set(inspect.signature(fn).parameters)] \
        == []


def test_no_unused_imports():
    """Every name a library, CLI or test module imports is used in it."""
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert paths
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and \
                    node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.name}: {alias.asname or alias.name}"
                           for alias in node.names
                           if (alias.asname or alias.name).split(".")[0]
                           not in used]
    assert unused == []


def _attributes(node, inside=None):
    """The attribute names referenced under node, except those referenced
    inside a function of the same name (inside names the innermost
    function around node)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Attribute) and child.attr != inside:
            yield child.attr
        yield from _attributes(child, child.name if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef)) else inside)


def test_every_public_name_is_used_or_listed():
    """Every public function, class and public method of the library is
    referenced somewhere in src/extalg, or is on PAPER_API or TEST_SUPPORT,
    and every name on those lists is public and referenced nowhere there.
    A method counts as referenced only through an attribute of its name,
    and not from inside a method of that name: local variables called like
    a method (mult, coords) do not use it, and neither does a method that
    only forwards to the same method of an object it holds."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    names, attrs = set(), set()
    for tree in trees.values():
        names |= {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)}
        attrs |= set(_attributes(tree))
    unused = []
    for layer in LIBRARY:
        for node in trees[layer].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or \
                    node.name.startswith("_"):
                continue
            if node.name not in names | attrs:
                unused.append(node.name)
            if isinstance(node, ast.ClassDef):
                unused += [f"{node.name}.{m.name}" for m in node.body
                           if isinstance(m, ast.FunctionDef)
                           and not m.name.startswith("_")
                           and m.name not in attrs]
    listed = PAPER_API.keys() | TEST_SUPPORT.keys()
    assert not PAPER_API.keys() & TEST_SUPPORT.keys()
    extra = sorted(set(unused) - listed)
    assert not extra, f"public names nothing uses: {', '.join(extra)}"
    stale = sorted(listed - set(unused))
    assert not stale, f"listed names used or gone: {', '.join(stale)}"


def test_tracer_hooks_exist():
    """perfbench/tracer.py wraps the methods in its METHODS and the private
    helpers in its PRIVATE by name; each must still exist, or the traced
    benchmark run breaks while no other test notices."""
    path = SRC.parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    hooks = [(layer, f"{cls}.{meth}") for layer, cls, meth in tracer.METHODS]
    hooks += [(layer, name) for layer, names in tracer.PRIVATE.items()
              for name in names]
    assert hooks
    missing = []
    for layer, qualname in hooks:
        owner = importlib.import_module(f"extalg.{layer}")
        for part in qualname.split("."):
            owner = vars(owner).get(part) if owner is not None else None
        if not callable(owner):
            missing.append(f"{layer}.{qualname}")
    assert missing == []
