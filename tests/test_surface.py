"""One surface rule for the whole package: every public top-level function
or class in src/vicinalda, and every field of a package dataclass, has a
reader outside the tests.

A name counts as read when one of these refers to it:
- package code outside its own definition and outside `__init__.py`;
- a `Tensor` operator method (`a @ b` calls `matmul`);
- `bench/tracer.py`'s TARGETS, or a `vicinalda` import in a bench/ file.

The package root exports only the library entry point, and no module of the
package or of the tests imports a name it never reads. Every defaulted
parameter of a package function is set by some call in package or bench
code, so no default stands for the only value a parameter takes.

The bench files are parsed, never imported or edited."""

import ast
import os
import re

import vicinalda
from vicinalda import trainer

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src", "vicinalda")
TESTS = os.path.join(REPO, "tests")
BENCH = os.path.join(REPO, "bench")


def parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def package_modules():
    """module name -> parsed tree, for every module but __init__."""
    return {name[:-3]: parse(os.path.join(SRC, name))
            for name in sorted(os.listdir(SRC))
            if name.endswith(".py") and name != "__init__.py"}


def public_definitions(modules):
    return {(module, node.name)
            for module, tree in modules.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}


def names_read_by(module, tree):
    """(module, name) pairs one package module refers to: its own top-level
    names outside their definitions, `from .other import name`, and
    `alias.name` where `from . import other as alias`."""
    used, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                aliases.update((a.asname or a.name, a.name) for a in node.names)
            else:
                used.update((node.module, a.name) for a in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            used.add((aliases[node.value.id], node.attr))
    for stmt in tree.body:
        own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
        used.update((module, n.id) for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and n.id != own)
    return used


def tensor_operator_calls(diffcore):
    tensor = next(n for n in diffcore.body if isinstance(n, ast.ClassDef) and n.name == "Tensor")
    return {("diffcore", call.func.id)
            for method in tensor.body
            if isinstance(method, ast.FunctionDef) and method.name.startswith("__")
            for call in ast.walk(method)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)}


def root_exports():
    """Root name -> the package module that defines it."""
    return {a.asname or a.name: node.module
            for node in parse(os.path.join(SRC, "__init__.py")).body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for a in node.names}


def tracer_targets():
    for node in parse(os.path.join(BENCH, "tracer.py")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            # (module, attribute, kind, span name) tuples; the span names
            # are not all literals, the first two fields are; an attribute
            # "Class.method" reads the class
            pairs = [ast.literal_eval(ast.Tuple(t.elts[:2], ast.Load())) for t in node.value.elts]
            return {(module.removeprefix("vicinalda."), attr.split(".")[0])
                    for module, attr in pairs}
    raise AssertionError("bench/tracer.py defines no TARGETS list")


def bench_imports():
    """(module, name) pairs bench/ files import from vicinalda; a root
    import counts for the module that defines the name."""
    root = root_exports()
    used = set()
    for name in sorted(os.listdir(BENCH)):
        if not name.endswith(".py"):
            continue
        for node in ast.walk(parse(os.path.join(BENCH, name))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("vicinalda"):
                for a in node.names:
                    if node.module == "vicinalda":
                        if a.name in root:
                            used.add((root[a.name], a.name))
                    else:
                        used.add((node.module.removeprefix("vicinalda."), a.name))
    return used


def dataclass_fields(modules):
    """(module, class, field) for every annotated field of a package
    `@dataclass`."""
    out = set()
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                out.update((module, node.name, stmt.target.id) for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name))
    return out


def unread_fields(modules):
    """Dataclass fields no package code reads, as "module.Class.field".

    A field counts as read when package code outside `__init__.py` loads
    `.field` on anything (methods included) or names it in a string literal,
    or when its class is passed to `dataclasses.fields`. The rule cannot
    tell objects apart: a field that shares its name with another attribute
    the package reads passes (`DomainPairDataset.seed` and
    `ConsensusViews.lam_p` did, beside `ModelParams.seed` and the `lam_p`
    config key)."""
    loaded, strings, listed = set(), set(), set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.add(node.value)
            elif (isinstance(node, ast.Call) and ast.unparse(node.func) == "dataclasses.fields"
                  and isinstance(node.args[0], ast.Name)):
                listed.add(node.args[0].id)
    return sorted(f"{module}.{cls}.{field}"
                  for module, cls, field in dataclass_fields(modules)
                  if field not in loaded and field not in strings and cls not in listed)


def unused_imports(tree):
    """Names a module imports and never reads. A name in the module's
    `__all__` counts as read; `from __future__` imports are exempt."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__all__"]:
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


def defaulted_parameters(modules):
    """{"module.function.param": (call name, position)} for every parameter
    with a default of a top-level package function or method. A class call
    reaches `__init__`, so its name is the class's; a method's positions
    skip `self`; a keyword-only parameter has position None."""
    out = {}
    for module, tree in modules.items():
        owners = [(None, tree)] + [(n.name, n) for n in tree.body if isinstance(n, ast.ClassDef)]
        for owner, node in owners:
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                args = fn.args
                positional = (args.posonlyargs + args.args)[owner is not None:]
                first = len(positional) - len(args.defaults)
                params = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
                params += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                           if d is not None]
                call = owner if fn.name == "__init__" else fn.name
                qualified = ".".join(filter(None, (module, owner, fn.name)))
                out.update((f"{qualified}.{name}", (call, i)) for name, i in params)
    return out


def unset_defaults(modules):
    """Defaulted parameters (as in `defaulted_parameters`) that no call in
    `modules` or in a bench/ file sets, by position or by keyword. Calls
    are matched by name alone (`f(...)`, `obj.f(...)`), so a call of a
    same-named function elsewhere counts; a `*args` call sets every
    position and a `**kwargs` call every parameter."""
    trees = list(modules.values()) + [parse(os.path.join(BENCH, name))
                                      for name in sorted(os.listdir(BENCH)) if name.endswith(".py")]
    params = defaulted_parameters(modules)
    unset = set(params)
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            keywords = {k.arg for k in call.keywords}  # None: a **kwargs
            for param, (callee, i) in params.items():
                if callee == name and (
                        None in keywords or param.rsplit(".", 1)[1] in keywords
                        or (i is not None and (starred or i < len(call.args)))):
                    unset.discard(param)
    return sorted(unset)


def library_use_imports():
    """(module, name) pairs README's "Library use" code block imports."""
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    return [(node.module, a.name) for node in ast.walk(ast.parse(code))
            if isinstance(node, ast.ImportFrom) for a in node.names]


class TestPublicSurface:
    def test_every_public_name_has_a_reader_outside_the_tests(self):
        modules = package_modules()
        used = set().union(*(names_read_by(m, tree) for m, tree in modules.items()))
        used |= tensor_operator_calls(modules["diffcore"])
        used |= tracer_targets() | bench_imports()
        unread = sorted(f"{module}.{name}" for module, name in public_definitions(modules) - used)
        assert unread == []

    def test_the_rule_sees_every_kind_of_reader(self):
        # each way of reading a name is exercised by the package as it is
        modules = package_modules()
        assert ("cli", "main") in names_read_by("__main__", modules["__main__"])
        assert ("diffcore", "neg") in names_read_by("trainer", modules["trainer"])
        assert ("diffcore", "matmul") in tensor_operator_calls(modules["diffcore"])
        assert ("diffcore", "SGD") in tracer_targets()
        assert ("vicinal", "brute_force_emp") in bench_imports()

    def test_every_dataclass_field_has_a_reader_outside_the_tests(self):
        assert unread_fields(package_modules()) == []

    def test_the_field_rule_flags_an_unread_field(self):
        modules = package_modules()
        batch = next(n for n in modules["domains"].body
                     if isinstance(n, ast.ClassDef) and n.name == "DomainBatch")
        batch.body.append(ast.parse("origin: str").body[0])
        assert unread_fields(modules) == ["domains.DomainBatch.origin"]

    def test_every_defaulted_parameter_is_set_by_a_caller(self):
        assert unset_defaults(package_modules()) == []

    def test_the_default_rule_flags_an_unset_parameter(self):
        modules = package_modules()
        forward = next(n for n in modules["model"].body
                       if isinstance(n, ast.FunctionDef) and n.name == "forward_np")
        forward.args.args.append(ast.arg("probe"))
        forward.args.defaults.append(ast.Constant(None))
        assert unset_defaults(modules) == ["model.forward_np.probe"]

    def test_no_module_imports_a_name_it_never_reads(self):
        paths = [os.path.join(d, name) for d in (SRC, TESTS)
                 for name in sorted(os.listdir(d)) if name.endswith(".py")]
        unused = {os.path.relpath(path, REPO): unused_imports(parse(path)) for path in paths}
        assert {path: names for path, names in unused.items() if names} == {}

    def test_the_import_rule_flags_an_unread_import(self):
        tree = ast.parse("from __future__ import annotations\n"
                         "import os\nimport numpy as np\nfrom .x import a, b\n"
                         "__all__ = ['b']\nnp.zeros(1)\n")
        assert unused_imports(tree) == ["a", "os"]


class TestRootSurface:
    def test_root_exports_the_library_entry_point_only(self):
        assert vicinalda.__all__ == ["TrainConfig", "train"]
        assert vicinalda.TrainConfig is trainer.TrainConfig
        assert vicinalda.train is trainer.train

    def test_readme_library_use_imports_only_root_exports(self):
        imports = library_use_imports()
        assert imports
        assert all(module == "vicinalda" and name in vicinalda.__all__
                   for module, name in imports)
