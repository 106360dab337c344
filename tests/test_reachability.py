"""Every public function and class in ``src/critsqg`` is reached from a command.

The walk starts at ``cli.main`` and ``calibration.main`` and at the module
statements that run on import, and follows each name a reached definition
looks up in module scope, through the package's imports.  A parameter or a
local that shadows a module-level name is not a reference to it, and neither
is an attribute such as ``stepper.step``, unless the object is a critsqg
module bound by an import.  A reached class counts with all its methods.
Only the verdicts of suite-only criteria may stay unreached: ``SUITE_ONLY``
names each with the criterion it backs.
"""

import ast
import os
import re
import symtable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ROOTS = [("cli", "main"), ("calibration", "main")]

# public names that only the acceptance suite calls, with the criterion each backs
SUITE_ONLY = {
    "tangent.frechet_residual": 12,
    "tangent.FrechetResult": 12,
    "diagnostics.log_convexity_monitor": 13,
    "diagnostics.LogConvexityResult": 13,
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _targets(st):
    return st.targets if isinstance(st, ast.Assign) else [st.target]


class Package:
    """The top-level definitions of a package's modules and the imports that bind them."""

    def __init__(self, path: str, name: str = "critsqg"):
        self.name = name
        self.modules = {}
        for fn in sorted(os.listdir(path)):
            if fn.endswith(".py"):
                with open(os.path.join(path, fn), encoding="utf-8") as fh:
                    self.modules[fn[:-3]] = ast.parse(fh.read(), fn)
        self.defs = {}       # (module, name) -> the top-level statement binding it
        self.imports = {}    # (module, name) -> the (module, name) it imports
        self.aliases = {}    # (module, name) -> the package module bound to it
        self.on_import = []  # (module, statement): run on import, binding no name
        for mod, tree in self.modules.items():
            for st in tree.body:
                self._add(mod, st)

    def _module(self, dotted, level: int):
        """The package module an import names, or None for a module outside the package."""
        if level:
            return dotted or "__init__"
        if dotted == self.name:
            return "__init__"
        prefix = self.name + "."
        return dotted[len(prefix):] if dotted and dotted.startswith(prefix) else None

    def _add(self, mod: str, st) -> None:
        if isinstance(st, _DEFS):
            self.defs[mod, st.name] = st
        elif isinstance(st, ast.ImportFrom):
            source = self._module(st.module, st.level)
            for a in st.names if source is not None else ():
                bound = (mod, a.asname or a.name)
                if source == "__init__" and a.name in self.modules:
                    self.aliases[bound] = a.name
                else:
                    self.imports[bound] = (source, a.name)
        elif isinstance(st, ast.Import):
            for a in st.names:
                source = self._module(a.name, 0)
                if source is not None and a.asname:
                    self.aliases[mod, a.asname] = source
        elif isinstance(st, (ast.Assign, ast.AnnAssign)) and all(
                isinstance(t, ast.Name) for t in _targets(st)):
            for t in _targets(st):
                self.defs[mod, t.id] = st
        else:
            self.on_import.append((mod, st))

    def resolve(self, mod: str, name: str):
        """The ``(module, name)`` definition that ``name`` in ``mod`` is, or None."""
        while (mod, name) not in self.defs:
            if (mod, name) not in self.imports:
                return None
            mod, name = self.imports[mod, name]
        return mod, name

    def references(self, mod: str, st) -> set:
        """The definitions that ``st``, a top-level statement of ``mod``, looks up."""
        table = symtable.symtable(ast.unparse(st), mod, "exec")
        names = {s.get_name() for s in table.get_symbols() if s.is_referenced()}
        scopes = table.get_children()
        while scopes:
            scope = scopes.pop()
            names |= {s.get_name() for s in scope.get_symbols() if s.is_global() and s.is_referenced()}
            scopes.extend(scope.get_children())
        found = {self.resolve(mod, name) for name in names}
        for node in ast.walk(st):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and (mod, node.value.id) in self.aliases):
                found.add(self.resolve(self.aliases[mod, node.value.id], node.attr))
        found.discard(None)
        return found

    def unreached(self, roots) -> set:
        """Dotted names of the public functions and classes that nothing reached refers to."""
        todo = list(roots)
        for mod, st in self.on_import:
            todo.extend(self.references(mod, st))
        seen = set()
        while todo:
            key = todo.pop()
            if key not in seen:
                seen.add(key)
                todo.extend(self.references(key[0], self.defs[key]))
        return {f"{mod}.{name}" for (mod, name), st in self.defs.items()
                if isinstance(st, _DEFS) and not name.startswith("_") and (mod, name) not in seen}


def test_every_public_definition_is_reached_from_a_command():
    unreached = Package(os.path.join(ROOT, "src", "critsqg")).unreached(ROOTS)
    assert sorted(unreached - set(SUITE_ONLY)) == [], "public, but no command reaches it"
    assert sorted(set(SUITE_ONLY) - unreached) == [], "in SUITE_ONLY, but reached or gone"


def test_suite_only_entries_back_suite_only_criteria():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        rows = {int(m.group(1)): m.group(0) for m in re.finditer(r"^\| (\d+) \|.*$", fh.read(), re.M)}
    for name, criterion in SUITE_ONLY.items():
        assert "suite-only" in rows[criterion], name


def _package(tmp_path, **sources):
    for mod, text in sources.items():
        (tmp_path / f"{mod}.py").write_text(text)
    return Package(str(tmp_path), name="pkg")


def test_guard_follows_scopes_imports_and_module_attributes(tmp_path):
    pkg = _package(
        tmp_path,
        __init__="",
        solver=("def step(x):\n    return x\n\n"
                "def integrate(step, x):\n    return step(x)\n\n"
                "def advance(x):\n    return x\n\n"
                "def reached_by_alias():\n    pass\n\n"
                "def renamed():\n    pass\n"),
        cli=("from . import solver\nfrom .solver import integrate, renamed as other\n"
             "import pkg.solver as s\n\n"
             "def main(stepper):\n"
             "    stepper.step(1)\n"  # a method of some object, not solver.step
             "    integrate(lambda v: v, 1)\n"  # integrate's parameter shadows solver.step
             "    other()\n"
             "    return solver.advance(1), s.reached_by_alias()\n"),
    )
    assert pkg.unreached([("cli", "main")]) == {"solver.step"}


def test_guard_counts_references_from_class_bodies_and_import_time_code(tmp_path):
    pkg = _package(
        tmp_path,
        __init__="",
        a=("def default():\n    return 1\n\n"
           "def used_in_method():\n    pass\n\n"
           "def at_import():\n    pass\n\n"
           "def orphan():\n    pass\n\n"
           "class Config:\n    value = default()\n\n"
           "    def method(self):\n        used_in_method()\n\n"
           "at_import()\n"),
        b="from .a import Config\n\ndef main():\n    return Config()\n",
    )
    assert pkg.unreached([("b", "main")]) == {"a.orphan"}
