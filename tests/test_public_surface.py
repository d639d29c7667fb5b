"""Every public module-level function and class method of the package has a
caller, and every field and property of a package class has a reader.

A function counts as called when a top-level statement of a module under
``src/splitkit`` other than its own definition, or the acceptance suite,
refers to it by name or attribute.  Imports and ``__all__`` entries do not
count, so a re-export alone keeps nothing alive.  Test oracles that the
package itself no longer calls are listed in ``ORACLES`` and
``METHOD_ORACLES``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "splitkit"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

# kept for the tests that use them as oracles and fixtures;
# Diffeo.differential and Diffeo.differential_inverse also because
# perfbench/tracing.py wraps them by name (ROADMAP item 4 deletes them with
# the tracer)
ORACLES = {"wedge_coordinates", "hash_file"}
METHOD_ORACLES = {
    "dynamics.Diffeo.identity",
    "dynamics.Diffeo.differential",
    "dynamics.Diffeo.differential_inverse",
}


def referenced_names(node):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def test_every_public_function_has_a_caller():
    defined = {}  # (module, name) -> the defining top-level statement
    used_by = []  # (statement, names it refers to) for every top-level statement
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            used_by.append((stmt, referenced_names(stmt)))
            if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
                defined[(path.stem, stmt.name)] = stmt
    acceptance = referenced_names(ast.parse(ACCEPTANCE.read_text(encoding="utf-8")))

    orphans = sorted(
        f"{module}.{name}"
        for (module, name), own in defined.items()
        if name not in ORACLES
        and name not in acceptance
        and not any(name in names for stmt, names in used_by if stmt is not own)
    )
    assert not orphans, f"public functions with no caller in src/ or the acceptance suite: {orphans}"


# one pullback implementation: the kernel in dynamics pulls back with the
# exact stage inverses and orthonormalises by hand
NO_DENSE_SOLVERS = ("dynamics", "frames", "splitting", "bracket", "cli")


def test_no_dense_solve_or_qr_in_the_orbit_layers():
    found = []
    for stem in NO_DENSE_SOLVERS:
        tree = ast.parse((PACKAGE / f"{stem}.py").read_text(encoding="utf-8"))
        for sub in ast.walk(tree):
            if (
                isinstance(sub, ast.Attribute)
                and sub.attr in ("qr", "solve")
                and isinstance(sub.value, ast.Attribute)
                and sub.value.attr == "linalg"
            ):
                found.append(f"{stem}:{sub.lineno} linalg.{sub.attr}")
    assert not found, f"dense solve/qr in the orbit layers: {found}"


class _AttributeUses(ast.NodeVisitor):
    """Attribute names referenced outside a function of the same name."""

    def __init__(self):
        self.names = set()
        self.enclosing = []

    def visit_FunctionDef(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    def visit_Attribute(self, node):
        if node.attr not in self.enclosing:
            self.names.add(node.attr)
        self.generic_visit(node)


def _is_property(fn):
    return any(
        (isinstance(d, ast.Name) and d.id == "property")
        or (isinstance(d, ast.Attribute) and d.attr in ("setter", "deleter"))
        for d in fn.decorator_list
    )


def test_every_public_method_has_a_caller():
    """A public method of a package class counts as called when an attribute
    of its name is referenced in src/ or in the acceptance suite, outside a
    method of the same name (an override calling ``super()`` keeps nothing
    alive). Properties are exempt."""
    methods = []
    uses = _AttributeUses()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        uses.visit(tree)
        for cls in (s for s in tree.body if isinstance(s, ast.ClassDef)):
            methods += [
                (f"{path.stem}.{cls.name}.{fn.name}", fn.name)
                for fn in cls.body
                if isinstance(fn, ast.FunctionDef)
                and not fn.name.startswith("_")
                and not _is_property(fn)
            ]
    uses.visit(ast.parse(ACCEPTANCE.read_text(encoding="utf-8")))

    orphans = sorted(
        qual for qual, name in methods if qual not in METHOD_ORACLES and name not in uses.names
    )
    assert not orphans, f"public methods with no caller in src/ or the acceptance suite: {orphans}"


# one map implementation: a stage moves (N,3) point stacks and (3, c, N)
# tangent stacks, and nothing else
STAGE_PROTOCOL = {"advance", "retreat", "push", "pull"}


def test_stages_define_only_the_stacked_protocol():
    tree = ast.parse((PACKAGE / "dynamics.py").read_text(encoding="utf-8"))
    stages = {s.name: s for s in tree.body if isinstance(s, ast.ClassDef)}
    for name in ("ToralAutomorphism", "ShearPerturbation"):
        public = {
            fn.name for fn in stages[name].body if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
        }
        assert public == STAGE_PROTOCOL, f"{name} defines {sorted(public)}"


# one backward step: every pullback sweep runs through dynamics._pull_back;
# differential_inverse stays as the kernel at N = 1 (see METHOD_ORACLES)
INVERSE_TANGENT_CALLERS = {"dynamics._pull_back", "dynamics.Diffeo.differential_inverse"}

# one forward pass: every pullback's orbit runs through dynamics._forward;
# besides it only the plain orbit and the one-step differentials step the map
ADVANCE_CALLERS = {
    "dynamics.orbit",
    "dynamics._forward",
    "dynamics._differentials",
    "dynamics.Diffeo.differential_inverse",
}


class _Callers(ast.NodeVisitor):
    """Qualified names of the functions that make a call ``match`` accepts."""

    def __init__(self, module, match):
        self.scope = [module]
        self.match = match
        self.callers = set()

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = _scoped

    def visit_Call(self, node):
        if self.match(node):
            self.callers.add(".".join(self.scope))
        self.generic_visit(node)


def _callers(match):
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        visitor = _Callers(path.stem, match)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        callers |= visitor.callers
    return callers


def _called_name(call):
    return getattr(call.func, "id", getattr(call.func, "attr", None))


def _is_inverse_tangent(call):
    """A ``_tangent(..., inverse=True)`` call."""
    return _called_name(call) == "_tangent" and any(
        kw.arg == "inverse" and isinstance(kw.value, ast.Constant) and kw.value.value is True
        for kw in call.keywords
    )


def test_one_backward_step():
    assert _callers(_is_inverse_tangent) == INVERSE_TANGENT_CALLERS


def test_one_forward_pass():
    assert _callers(lambda call: _called_name(call) == "_advance") == ADVANCE_CALLERS


# the integrability layers test statements about a plane field, whatever
# built it: they take frames, and only the CLI and the cocycle functions turn
# a map into frames
FRAME_GENERIC = ("surface", "uniqueness")
MAP_NAMES = {"dynamics", "splitting", "PullbackFrame"}


def _names_reached(node):
    """The modules an import reaches and the names it binds; the name a
    Name or Attribute node refers to."""
    if isinstance(node, ast.ImportFrom):
        return set((node.module or "").split(".")) | {a.name for a in node.names}
    if isinstance(node, ast.Import):
        return {part for a in node.names for part in a.name.split(".")}
    return {getattr(node, "id", None), getattr(node, "attr", None)}


def test_surface_and_uniqueness_take_frames():
    found = [
        f"{stem}:{sub.lineno} {sorted(MAP_NAMES & _names_reached(sub))}"
        for stem in FRAME_GENERIC
        for sub in ast.walk(ast.parse((PACKAGE / f"{stem}.py").read_text(encoding="utf-8")))
        if MAP_NAMES & _names_reached(sub)
    ]
    assert not found, f"the frame-generic layers reach for the map: {found}"


def _loaded_attributes(tree):
    return {
        sub.attr
        for sub in ast.walk(tree)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    }


def test_every_field_has_a_reader():
    """A field (an annotated class attribute, as a record declares) or a
    property of a package class counts as read when an attribute of its name
    is loaded in src/ or in the acceptance suite; a constructor keyword of the
    same name does not count. The rule matches names only, so a field that
    shares its name with a field of another class that is read passes
    unread."""
    fields = []
    loaded = _loaded_attributes(ast.parse(ACCEPTANCE.read_text(encoding="utf-8")))
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loaded |= _loaded_attributes(tree)
        for cls in (s for s in tree.body if isinstance(s, ast.ClassDef)):
            fields += [
                (f"{path.stem}.{cls.name}.{s.target.id}", s.target.id)
                for s in cls.body
                if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
            ]
            fields += [
                (f"{path.stem}.{cls.name}.{fn.name}", fn.name)
                for fn in cls.body
                if isinstance(fn, ast.FunctionDef) and _is_property(fn)
            ]

    unread = sorted(qual for qual, name in fields if name not in loaded)
    assert not unread, f"fields and properties with no reader in src/ or the acceptance suite: {unread}"


def test_every_exemption_names_a_member():
    """An exemption does not outlive its member: each entry of ``ORACLES``
    names a module-level function of the package and each of
    ``METHOD_ORACLES`` a method of a package class."""
    functions, methods = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.FunctionDef):
                functions.add(stmt.name)
            elif isinstance(stmt, ast.ClassDef):
                methods |= {
                    f"{path.stem}.{stmt.name}.{s.name}"
                    for s in stmt.body
                    if isinstance(s, ast.FunctionDef) and not _is_property(s)
                }
    stale = sorted((ORACLES - functions) | (METHOD_ORACLES - methods))
    assert not stale, f"exemptions that name no function or method of the package: {stale}"
