"""Planar, 3-D and 4-D work runs on numpy alone: scipy is imported only
where it is used.  No package module imports a name it never uses, every module-level
private name is read somewhere in the package besides its definition, and
every error class is raised somewhere."""

import ast
import subprocess
import sys
from pathlib import Path

import solidsum

COLD_RUN = """
import sys
sys.path.insert(0, sys.argv[1])

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import numpy as np
import solidsum as ss
square = ss.load_polytope(2, [(0, 0), (1, 0), (1, 1), (0, 1)])
triangle = ss.sqrt3_triangle()
quadrant = ss.simple_cone([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
s = [0.31 + 0.12j, 0.22 - 0.07j]
assert abs(ss.macdonald_volume(square, 2.0).value - 4.0) < 1e-12
assert abs(ss.discrete_volume(triangle, 1.0).value - 11.0 / 12.0) < 1e-12
assert ss.verify_brion(triangle, s).passed
assert ss.verify_cone_reciprocity(quadrant, [0.5, 0.25], s).passed
assert not scipy_modules(), scipy_modules()

simplex = ss.load_polytope(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
cube = ss.load_polytope(3, [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
cross = ss.load_polytope(4, [[sign * float(j == k) for j in range(4)] for k in range(4) for sign in (1, -1)])
for P, n_cones, n_faces in ((simplex, 4, 15), (cube, 8, 27), (cross, 8 * 4, 81)):
    assert sum(len(ss.vertex_simple_cones(P, i)) for i in range(P.n_vertices)) == n_cones
    assert len(ss.faces(P)) == n_faces
A1 = 0.20613008597704452  # 1/8 + 3 omega, omega the solid angle at (1, 0, 0)
oracle = ss.discrete_volume(simplex, 3.0)
assert abs(oracle.value - (4.5 + 3.0 * (A1 - 1.0 / 6.0))) < 4.0 * oracle.std_error
fast = ss.DampedSumConfig(eps_schedule=tuple(0.5 * 0.5 ** k for k in range(6)), truncation_radius=30)
volume = ss.macdonald_volume(simplex, 1.0, cfg=fast)
assert abs(volume.value - A1) <= volume.error
assert ss.brianchon_gram_check(simplex, 200, 0).passed
assert not scipy_modules(), scipy_modules()

# every vertex cone of a simplicial polytope with 60 vertices, 2 * 60 - 4
# facets and 3 * 60 - 6 edges splits into its degree minus 2 pieces
S = np.random.default_rng(2).normal(size=(60, 3))
sphere = ss.load_polytope(3, (S / np.linalg.norm(S, axis=1)[:, None]).tolist())
assert len(sphere.A) == 116
assert sum(len(ss.vertex_simple_cones(sphere, i)) for i in range(60)) == 2 * 174 - 2 * 60
assert ss.brianchon_gram_check(sphere, 200, 0).passed
assert not scipy_modules(), scipy_modules()

# a generator list is read off one hull as well: the cone over a square
# splits into 2 pieces, and its facets cut out asin(1/3) / pi of the sphere
square_cone = np.array([(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)], dtype=float)
assert len(ss.triangulate_cone(np.zeros(3), square_cone)) == 2
angle = ss.solid_angle_mc(ss.Cone(np.zeros(3), square_cone), [0, 0, 0], n_samples=20_000, seed=1)
assert abs(angle.value - np.arcsin(1.0 / 3.0) / np.pi) < 4.0 * angle.std_error
assert not scipy_modules(), scipy_modules()
print("ok")
"""


def test_operations_up_to_dimension_4_import_no_scipy():
    src = str(Path(solidsum.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", COLD_RUN, src],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["ok"]


def _unused_imports(source: str) -> list:
    """Names a module imports and never reads (``__future__`` imports aside)."""
    tree = ast.parse(source)
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_unused_imports():
    package = Path(solidsum.__file__).resolve().parent
    unused = {path.name: _unused_imports(path.read_text(encoding="utf-8"))
              for path in sorted(package.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}


def _private_definitions(tree) -> dict:
    """Module-level private names (``_x``, not dunders), each with the
    top-level statement that defines it."""
    defined = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        defined.update({name: stmt for name in names if name.startswith("_") and not name.startswith("__")})
    return defined


def _names_read(node) -> set:
    """Names a node reads, as a variable or as an attribute."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def test_every_private_name_is_read():
    package = Path(solidsum.__file__).resolve().parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    reads = [(stmt, _names_read(stmt)) for tree in trees.values() for stmt in tree.body]
    unread = {f"{module}:{name}" for module, tree in trees.items()
              for name, where in _private_definitions(tree).items()
              if not any(name in names for stmt, names in reads if stmt is not where)}
    assert sorted(unread) == []


def _raised_names(tree) -> set:
    """Names a module raises, as ``raise X`` or ``raise X(...)``."""
    excs = [node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            for node in ast.walk(tree) if isinstance(node, ast.Raise)]
    return {exc.id for exc in excs if isinstance(exc, ast.Name)}


def test_every_error_class_is_raised():
    package = Path(solidsum.__file__).resolve().parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    raised = set().union(*map(_raised_names, trees.values()))
    errors = [stmt.name for stmt in trees["errors.py"].body if isinstance(stmt, ast.ClassDef)]
    assert [name for name in errors if name != "SolidSumError" and name not in raised] == []
