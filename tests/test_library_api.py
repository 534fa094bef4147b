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
    "HomSpace.coords": "coordinates of one hom; perfbench/tracer.py wraps it",
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


def _is_classmethod(node):
    return any(isinstance(d, ast.Name) and d.id == "classmethod"
               for d in node.decorator_list)


def test_every_public_name_is_used_or_listed():
    """Every public function, class and public method of the library is
    referenced somewhere in src/extalg, or is on PAPER_API or TEST_SUPPORT,
    and every name on those lists is public and referenced nowhere there.
    A function or class counts as referenced only through its name, not
    through an attribute of that name (ring.ext does not use ext).  A
    classmethod counts only through its class's name (LeftModule.zero
    does not use ModuleHom.zero).  Any other method counts only through an
    attribute of its name, and not from inside a method of that name:
    local variables called like a method (coords) do not use it, and
    neither does a method that only forwards to the same method of an
    object it holds."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    names, attrs, on_names = set(), set(), set()
    for tree in trees.values():
        names |= {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)}
        attrs |= set(_attributes(tree))
        on_names |= {(node.value.id, node.attr) for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute)
                     and isinstance(node.value, ast.Name)}
    unused = []
    for layer in LIBRARY:
        for node in trees[layer].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or \
                    node.name.startswith("_"):
                continue
            if node.name not in names:
                unused.append(node.name)
            if isinstance(node, ast.ClassDef):
                unused += [f"{node.name}.{m.name}" for m in node.body
                           if isinstance(m, ast.FunctionDef)
                           and not m.name.startswith("_")
                           and ((node.name, m.name) not in on_names
                                if _is_classmethod(m)
                                else m.name not in attrs)]
    listed = PAPER_API.keys() | TEST_SUPPORT.keys()
    assert not PAPER_API.keys() & TEST_SUPPORT.keys()
    extra = sorted(set(unused) - listed)
    assert not extra, f"public names nothing uses: {', '.join(extra)}"
    stale = sorted(listed - set(unused))
    assert not stale, f"listed names used or gone: {', '.join(stale)}"


# The only code in src/extalg that reads or writes an object's cache:
# `kept` (one object) and `shared` (content-equal modules), and the line
# of each owner's __init__ that makes the cache.
CACHE_ACCESS = {("algebra", "kept"), ("algebra", "shared")}
CACHE_OWNERS = {("algebra", "Algebra", "__init__"),
                ("algebra", "LeftModule", "__init__"),
                ("algebra", "Bimodule", "__init__"),
                ("trivext", "TrivialExtension", "__init__")}


def _cache_uses(node, stem, scope=()):
    """"file:line scope" of each `_cache` attribute under node outside
    CACHE_ACCESS and the `self._cache: dict = {}` lines of CACHE_OWNERS;
    scope is the qualified name of the innermost class or function."""
    for child in ast.iter_child_nodes(node):
        if (stem, *scope) in CACHE_OWNERS and \
                ast.unparse(child) == "self._cache: dict = {}":
            continue
        if isinstance(child, ast.Attribute) and child.attr == "_cache" \
                and (stem, *scope[:1]) not in CACHE_ACCESS:
            yield f"{stem}.py:{child.lineno} {'.'.join(scope)}"
        named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
        yield from _cache_uses(child, stem,
                               scope + (child.name,) if named else scope)


def test_only_kept_and_shared_touch_a_cache():
    """A cache lives on the object it describes, and `kept` and `shared`
    are the one mechanism that reads and writes it: no function hand-rolls
    a memo, and none reads the cache of another object, such as the
    opposite algebra's."""
    memo = "class C:\n    def f(self):\n        return self._cache['k']\n"
    assert list(_cache_uses(ast.parse(memo), "algebra")) == [
        "algebra.py:3 C.f"]
    uses = [use for path in sorted(SRC.glob("*.py"))
            for use in _cache_uses(ast.parse(path.read_text()), path.stem)]
    assert uses == []


# The trust boundary: the functions that build data from a workspace file
# (or the built-in corpus), and so check it.  Every other build of these
# classes in src/extalg derives its object from checked parts by a
# construction that keeps the axioms, and passes validate=False.
CHECKED = {"Algebra", "LeftModule", "Bimodule", "ModuleHom", "PairModule",
           "CopairModule", "TupleModule", "CoTupleModule"}
TRUST_BOUNDARY = {("cli", "_algebra"), ("cli", "_bimodule"),
                  ("cli", "_module"), ("cli", "emit_builtin_examples"),
                  ("trivext", "right_pair"), ("morita", "right_tuple")}


def _checking_classes(trees):
    """CHECKED and the classes they inherit from, whose methods check an
    object of their own: a `.validate()` there is the check of a build."""
    bases = {node.name: [ast.unparse(b) for b in node.bases]
             for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)}
    found, todo = set(), list(CHECKED)
    while todo:
        name = todo.pop()
        if name not in found:
            found.add(name)
            todo += bases.get(name, [])
    return found


def _checked_builds(node, stem, checking, scope=(), owner=None):
    """(scope, "file:line scope") of each call under node that builds one
    of CHECKED without validate=False, by its name or as `cls` inside a
    method of owner, the innermost class, and of each `.validate()` call
    in a library module outside the methods of the classes `checking`
    (the CLI's `Workspace.validate` builds a whole workspace through the
    trust boundary); scope is the qualified name of the innermost class or
    function."""
    for child in ast.iter_child_nodes(node):
        func = child.func if isinstance(child, ast.Call) else None
        if isinstance(func, ast.Name):
            name = owner if func.id == "cls" else func.id
            checked = name in CHECKED and not any(
                k.arg == "validate" and ast.unparse(k.value) == "False"
                for k in child.keywords)
        else:
            checked = isinstance(func, ast.Attribute) and \
                func.attr == "validate" and stem in LIBRARY and \
                owner not in checking
        if checked:
            where = ".".join(scope)
            yield (stem, where), f"{stem}.py:{child.lineno} {where}"
        named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
        yield from _checked_builds(
            child, stem, checking, scope + (child.name,) if named else scope,
            child.name if isinstance(child, ast.ClassDef) else owner)


def test_only_the_trust_boundary_builds_checked():
    """Data is checked where it enters, and nowhere else: only the
    functions of TRUST_BOUNDARY build an algebra, module, bimodule, module
    map, pair, copair, tuple or cotuple with its check on, or check one
    built without it, and each of them does."""
    snippet = ("class LeftModule:\n"
               "    @classmethod\n"
               "    def zero(cls, a):\n"
               "        return cls(a, [])\n"
               "class Presented:\n"
               "    def validate(self):\n"
               "        self.module.validate()\n"
               "class PairModule(Presented):\n"
               "    def __init__(self):\n"
               "        self.validate()\n"
               "def f(a, m):\n"
               "    return (ModuleHom(a, a, m),\n"
               "            ModuleHom(a, a, m, validate=False))\n"
               "def g(r, w, q, f, g):\n"
               "    CoTupleModule(r, w, q, f, g)\n"
               "    t = TupleModule(r, w, q, f, g, validate=False)\n"
               "    t.validate()\n")
    tree = ast.parse(snippet)
    assert [where for _, where in _checked_builds(
        tree, "algebra", _checking_classes([tree]))] == [
        "algebra.py:4 LeftModule.zero", "algebra.py:12 f",
        "algebra.py:15 g", "algebra.py:17 g"]
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    checking = _checking_classes(trees.values())
    builds = [build for stem, tree in trees.items()
              for build in _checked_builds(tree, stem, checking)]
    assert [where for scope, where in builds
            if scope not in TRUST_BOUNDARY] == []
    assert {scope for scope, _ in builds} == TRUST_BOUNDARY


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
