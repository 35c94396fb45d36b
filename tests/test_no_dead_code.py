"""Dead-code guard: every top-level function and class of src/smlmc, and every
public method, is used by the package itself, not only by the tests; every
module-level constant and every dataclass field is read; no parameter, field
or command-line option restates a config setting as its default; and the
config passes every field of each object it builds.

A definition counts as used when some module other than __init__.py refers
to its name as a Name or an Attribute node; a mention in a docstring or a
comment does not count.  Test oracles, code the package does not run that
the tests check the code it does run against, live in tests/oracles.py.  The
exceptions are the oracles the benchmark calls (SRC_ORACLES), which stay in
the package as long as bench/workloads.py calls them.  Every oracle says so
in its docstring.

A module-level constant (a name a module-level assignment binds) counts as
read when some module other than __init__.py loads it as a Name or an
Attribute; its own assignment does not count.

A dataclass field counts as read when it is read as an attribute outside its
class's __post_init__ (where it is only checked), or named by a string in
one of the tables that look fields up by name (TABLES).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "smlmc"
ORACLES = ROOT / "tests" / "oracles.py"
WORKLOADS = ROOT / "bench" / "workloads.py"

SRC_ORACLES = {
    # the sup-norm error to a reference CDF, by which the benchmark (and the
    # acceptance tests) judge every estimate
    "sup_distance",
}
# The kernels' dense values are oracles too, and stay in the package because
# the benchmark's trace wraps them.  This guard cannot see them: the bare name
# "values" is always in use, by dict.values().


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _modules():
    return {p.name: _parse(p) for p in sorted(SRC.glob("*.py"))}


def _oracle_names():
    """The top-level functions of tests/oracles.py."""
    return [node.name for node in _parse(ORACLES).body if isinstance(node, ast.FunctionDef)]


def _definitions(modules):
    """(qualified name, bare name, docstring) of every top-level function or
    class and every public method."""
    out = []
    for tree in modules.values():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.append((node.name, node.name, ast.get_docstring(node)))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        out.append((f"{node.name}.{item.name}", item.name,
                                    ast.get_docstring(item)))
    return out


def _references(modules):
    names = set()
    for fname, tree in modules.items():
        if fname == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_no_definition_is_used_only_by_tests():
    modules = _modules()
    used = _references(modules)
    unused = [qual for qual, bare, _ in _definitions(modules)
              if bare not in used and qual not in SRC_ORACLES]
    assert not unused, f"defined in src/smlmc but never used there: {unused}"


@pytest.mark.parametrize("name", sorted(SRC_ORACLES))
def test_src_oracles_are_called_by_the_benchmark(name):
    # an oracle only the tests call belongs in tests/oracles.py
    assert name in _references({"workloads.py": _parse(WORKLOADS)}), (
        f"bench/workloads.py no longer calls {name}: move it to tests/oracles.py")


@pytest.mark.parametrize("name", sorted(SRC_ORACLES | set(_oracle_names())))
def test_oracles_are_documented_and_unused(name):
    modules = _modules()
    src_docs = {qual: doc for qual, _, doc in _definitions(modules)}
    test_docs = {qual: doc for qual, _, doc in _definitions({"oracles.py": _parse(ORACLES)})}
    if name in SRC_ORACLES:
        assert name in src_docs, f"{name} is no longer defined; drop it from SRC_ORACLES"
    else:
        # one copy, in the tests
        assert name not in src_docs, f"{name} is defined in src/smlmc and in tests/oracles.py"
    doc = src_docs.get(name) or test_docs.get(name) or ""
    assert "oracle" in doc, f"{name}'s docstring must call it an oracle"
    # an oracle the package starts to use is no longer an oracle
    assert name not in _references(modules)


def test_guard_sees_names_not_docstrings():
    # a name mentioned only in a docstring or a string stays unused
    tree = ast.parse('def f():\n    """calls g"""\n    return "g"\n\n\ndef g():\n    pass\n')
    used = _references({"m.py": tree})
    assert "g" not in used
    assert [q for q, b, _ in _definitions({"m.py": tree}) if b not in used] == ["f", "g"]


def _unread_constants(modules):
    """module:name of every module-level constant that no module reads."""
    bound, reads = [], set()
    for fname, tree in modules.items():
        if fname == "__init__.py":
            continue
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound += [(fname, n.id) for t in targets for n in ast.walk(t)
                          if isinstance(n, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
    return [f"{fname}:{name}" for fname, name in bound if name not in reads]


def test_every_module_constant_is_read():
    unread = _unread_constants(_modules())
    assert not unread, f"module-level names that src/smlmc never reads: {unread}"


def test_constant_guard_ignores_assignments_and_init():
    # binding a name is not reading it, and neither is a read in __init__.py
    # or a mention in a string; a read through an attribute counts
    tree = ast.parse("A = 1\n_B, C = 2, 3\nD: int = 4\nE = 5\n\n\n"
                     "def f():\n    return A + m.C + len('_B')\n")
    init = ast.parse("from .m import D\nX = D + E\n")
    assert _unread_constants({"m.py": tree, "__init__.py": init}) == ["m.py:_B", "m.py:D",
                                                                        "m.py:E"]


# module-level tables whose strings name the fields that getattr reads
TABLES = ("METHODS",)


def _is_dataclass(node):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def _unread_fields(modules):
    """Class.field of every dataclass field that nothing reads."""
    fields, skipped = [], set()
    for tree in modules.values():
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        fields.append((node.name, item.target.id))
                    if isinstance(item, ast.FunctionDef) and item.name == "__post_init__":
                        skipped |= {(node.name, id(n)) for n in ast.walk(item)}
    reads, named = [], set()
    for fname, tree in modules.items():
        if fname == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.append((node.attr, id(node)))
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and getattr(node.targets[0], "id", None) in TABLES):
                named |= {c.value for c in ast.walk(node.value)
                          if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return [f"{cls}.{name}" for cls, name in fields
            if name not in named
            and not any(attr == name and (cls, key) not in skipped for attr, key in reads)]


def test_every_dataclass_field_is_read():
    unread = _unread_fields(_modules())
    assert not unread, f"dataclass fields that src/smlmc never reads: {unread}"


def test_field_guard_ignores_post_init_checks():
    # a field that only its own __post_init__ checks is unread, as
    # RunConfig.strata once was; one read elsewhere or named in a table is not
    tree = ast.parse(
        "@dataclass\nclass C:\n    checked: int\n    used: int\n    keyed: int\n\n"
        "    def __post_init__(self):\n        if self.checked < 0 or self.used < 0:\n"
        "            raise ValueError\n\n"
        "    def f(self):\n        return self.used\n\n\n"
        "METHODS = {'m': MethodSpec('none', False, 'keyed')}\n")
    assert _unread_fields({"m.py": tree}) == ["C.checked"]


KERNELS = {"GilesPolynomial", "GaussianKernelCdf"}


def _kernel_class_checks(tree):
    """Source of every isinstance call that names a kernel class."""
    return [ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
            and KERNELS & {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}]


def test_smoothing_asks_kernels_not_their_class():
    # what calibration needs of a kernel (its series moments, the range its
    # series serves, its exact form) is on the kernel, so smoothing.py never
    # branches on a kernel's class
    checks = _kernel_class_checks(_modules()["smoothing.py"])
    assert not checks, f"smoothing.py tests a kernel's class: {checks}"


def test_kernel_class_guard_sees_tuples():
    tree = ast.parse("isinstance(k, (int, GaussianKernelCdf))\nisinstance(k, float)\n")
    assert _kernel_class_checks(tree) == ["isinstance(k, (int, GaussianKernelCdf))"]


# names of config settings beyond the INI keys and ExperimentConfig fields:
# RunConfig's per-method warmup
SETTING_NAMES = {"warmup"}


def _setting_defaults(modules, settings):
    """Owner.name of every function parameter, and every dataclass field
    outside ExperimentConfig, that is named like a config setting and has a
    default, and add_argument.--name of every command-line option so named
    that has one."""
    out = []
    for tree in modules.values():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"
                    and any(k.arg == "default" for k in node.keywords)):
                out += [f"add_argument.{a.value}" for a in node.args
                        if isinstance(a, ast.Constant) and str(a.value).startswith("--")
                        and a.value[2:].replace("-", "_") in settings]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                with_default = positional[len(positional) - len(args.defaults):] + [
                    a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                out += [f"{node.name}.{a.arg}" for a in with_default if a.arg in settings]
            if (isinstance(node, ast.ClassDef) and _is_dataclass(node)
                    and node.name != "ExperimentConfig"):
                out += [f"{node.name}.{item.target.id}" for item in node.body
                        if isinstance(item, ast.AnnAssign) and item.value is not None
                        and isinstance(item.target, ast.Name) and item.target.id in settings]
    return out


def test_no_default_restates_a_config_setting():
    # a preset value lives in ExperimentConfig alone: the objects a config
    # builds, the functions they call and the command line take it from there
    from smlmc.config import KEYS

    settings = {key for _, key, _, _ in KEYS} | {field for _, _, field, _ in KEYS} | SETTING_NAMES
    found = _setting_defaults(_modules(), settings)
    assert not found, f"defaults that restate a config setting: {found}"


def test_setting_guard_sees_parameters_and_fields():
    tree = ast.parse(
        "def f(a, cfl=0.9, *, seed=0, w=1):\n    pass\n\n\n"
        "def g(cfl, *, seed):\n    pass\n\n\n"
        "@dataclass\nclass C:\n    eps: float\n    warmup: int = 200\n\n\n"
        "@dataclass\nclass ExperimentConfig:\n    cfl: float = 0.9\n\n\n"
        "class Plain:\n    seed = 0\n\n\n"
        "p.add_argument('--seed', type=int)\np.add_argument('--w', default=2.0)\n"
        "p.add_argument('-d', '--min-stratum-samples', default=2)\n")
    found = _setting_defaults({"m.py": tree},
                              {"cfl", "seed", "warmup", "eps", "min_stratum_samples"})
    assert found == ["f.cfl", "f.seed", "C.warmup", "add_argument.--min-stratum-samples"]


# the objects ExperimentConfig builds for a run
BUILT_BY_CONFIG = ("ModelSpec", "MeshHierarchy", "RunConfig", "NodeGrid", "TruncatedLognormal")


def _init_fields(node):
    """The fields of a dataclass that its __init__ takes, in order."""
    return [item.target.id for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            and not (isinstance(item.value, ast.Call) and any(
                k.arg == "init" and getattr(k.value, "value", True) is False
                for k in item.value.keywords))]


def _unpassed_fields(modules, classes):
    """Class.field of every __init__ field of the given dataclasses that no
    call in config.py passes, by position or by keyword."""
    init = {node.name: _init_fields(node) for tree in modules.values() for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name in classes and _is_dataclass(node)}
    assert set(init) == set(classes), f"not found: {sorted(set(classes) - set(init))}"
    passed = {cls: set() for cls in init}
    for node in ast.walk(modules["config.py"]):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in init:
            cls = node.func.id
            passed[cls] |= set(init[cls][:len(node.args)]) | {k.arg for k in node.keywords}
    return [f"{cls}.{name}" for cls, names in init.items() for name in names
            if name not in passed[cls]]


def test_config_passes_every_field_it_builds():
    # a field that config.py never passes is a setting no config can reach
    unpassed = _unpassed_fields(_modules(), BUILT_BY_CONFIG)
    assert not unpassed, f"fields that no config sets: {unpassed}"


def test_passed_field_guard_counts_positions_and_keywords():
    model = ast.parse("@dataclass\nclass C:\n    a: int\n    b: int\n    c: int = 1\n"
                      "    d: int = field(init=False)\n    e: int = field(default=2)\n")
    config = ast.parse("def f():\n    return C(1, c=2)\n\n\nC.b\n")
    assert _unpassed_fields({"m.py": model, "config.py": config}, ("C",)) == ["C.b", "C.e"]
