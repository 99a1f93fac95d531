"""The planar path runs on numpy alone: scipy is imported only where it is used."""

import subprocess
import sys
from pathlib import Path

import solidsum

COLD_RUN = """
import sys
sys.path.insert(0, sys.argv[1])

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

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
assert sum(len(ss.vertex_simple_cones(simplex, i)) for i in range(4)) == 4
assert "scipy.spatial" in sys.modules and "scipy.optimize" not in sys.modules
print("ok")
"""


def test_planar_operations_import_no_scipy():
    src = str(Path(solidsum.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", COLD_RUN, src],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["ok"]
