"""Every name a package lists in ``__all__`` must resolve, every name a
module imports must be used in it, and every error type must be named by a
module besides ``errors``, so a deletion cannot leave a stale re-export, a
stale import or an error type nothing raises behind. Every keyword default
must be set by some caller in the program, so a setting that only tests use
does not stay in it."""

import ast
import importlib
import pathlib
import re

import pytest


@pytest.mark.parametrize("package", ["diffsentry.ensembles", "diffsentry.wavegen"])
def test_star_import_resolves_every_exported_name(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    exported = importlib.import_module(package).__all__
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if name not in namespace] == []


def test_every_error_type_is_named_outside_its_module():
    # a class in ``errors`` that no other module names is raised nowhere
    errors = importlib.import_module("diffsentry.errors")
    home = pathlib.Path(errors.__file__)
    text = "".join(p.read_text() for p in home.parent.rglob("*.py") if p != home)
    types = [name for name, obj in vars(errors).items()
             if isinstance(obj, type) and issubclass(obj, errors.DiffsentryError)]
    assert types
    assert [name for name in types if not re.search(rf"\b{name}\b", text)] == []


ROOT = pathlib.Path(__file__).resolve().parents[1]


def _unused_imports(path):
    """Names an import in ``path`` binds that nothing in the module reads;
    a name listed in ``__all__`` is read by a star import."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_every_imported_name_is_used():
    src = ROOT / "src" / "diffsentry"
    unused = {str(p.relative_to(src)): names for p in sorted(src.rglob("*.py"))
              if (names := _unused_imports(p))}
    assert unused == {}

#: defaults no program caller sets, each kept because a test sets it
UNSET_BY_THE_PROGRAM = {
    "detect_noise_study(repeats)": "tests/test_acceptance.py passes it",
    "cart_fit(cfg)": "tests/test_acceptance.py passes it",
}


def _defaults(path):
    """(name a call uses, "qualname(param)", the param's position among the
    call's own positional arguments or None) for every parameter with a
    default of every function in ``path``; a class's ``__init__`` is called
    by the class name, and a method's first parameter is its receiver."""
    out = []

    def visit(body, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                bound = cls is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in node.decorator_list)
                first = len(positional) - len(args.defaults)
                with_default = [(a, i - bound) for i, a in enumerate(positional)
                                if i >= first]
                with_default += [(a, None) for a, d in
                                 zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                name = cls if node.name == "__init__" else node.name
                qual = f"{cls}.{node.name}" if cls else node.name
                out.extend((name, f"{qual}({a.arg})", at) for a, at in with_default)
                visit(node.body, None)

    visit(ast.parse(path.read_text()).body, None)
    return out


def _calls(path):
    """(called name, keyword names, positional count, passes ``**``) of
    every call in ``path``; a ``*`` argument reaches every position."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            n = (float("inf") if any(isinstance(a, ast.Starred) for a in node.args)
                 else len(node.args))
            yield (name, {k.arg for k in node.keywords}, n,
                   any(k.arg is None for k in node.keywords))


def test_every_keyword_default_is_set_by_a_program_caller():
    src = ROOT / "src" / "diffsentry"
    calls = [c for d in (src, ROOT / "benchmark")
             for p in sorted(d.rglob("*.py")) for c in _calls(p)]
    unset = set()
    for p in sorted(src.rglob("*.py")):
        for name, qual, at in _defaults(p):
            param = qual[qual.index("(") + 1:-1]
            if not any(called == name and (param in keywords or star or (
                    at is not None and at < n))
                       for called, keywords, n, star in calls):
                unset.add(qual)
    assert unset == set(UNSET_BY_THE_PROGRAM)
