"""One surface rule for the whole package: every public top-level function
or class in src/vicinalda has a reader outside the tests.

A name counts as read when one of these refers to it:
- package code outside its own definition and outside `__init__.py`;
- a `Tensor` operator method (`a @ b` calls `matmul`);
- `bench/tracer.py`'s TARGETS, or a `vicinalda` import in a bench/ file.

The bench files are parsed, never imported or edited."""

import ast
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src", "vicinalda")
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
