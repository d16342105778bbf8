import numpy as np
import pytest
from hypothesis import settings

from excomp import builtin, surfaces, tessellate

settings.register_profile("ci", derandomize=True, deadline=None, max_examples=60)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def plane_128():
    return tessellate(builtin("plane", cover_radius=3.2), 128, 128)


@pytest.fixture(scope="session")
def plane_256():
    return tessellate(builtin("plane", cover_radius=3.2), 256, 256)


@pytest.fixture(scope="session")
def plane_512():
    return tessellate(builtin("plane", cover_radius=3.2), 512, 512)


@pytest.fixture(scope="session")
def catenoid_96():
    return tessellate(builtin("catenoid", a=1.0, cover_radius=21.0), 96, 96)


@pytest.fixture(scope="session")
def catenoid_192():
    return tessellate(builtin("catenoid", a=1.0, cover_radius=21.0), 192, 192)


@pytest.fixture(scope="session")
def catenoid_384():
    return tessellate(builtin("catenoid", a=1.0, cover_radius=21.0), 384, 384)


@pytest.fixture(scope="session")
def enneper_192():
    return tessellate(builtin("enneper", cover_radius=12.0), 192, 192)


@pytest.fixture(scope="session")
def enneper_384():
    return tessellate(builtin("enneper", cover_radius=12.0), 384, 384)


def _plane_with_sliver(plane, near, fraction):
    """The plane with the interior edge (a, b) of a face (a, b, c), the one
    whose midpoint is nearest r = near, split at a point m: (a, b, c) becomes
    (a, m, c) and (m, b, c), and the last face is (a, b, m).  m is the
    edge's midpoint, or lies just off it towards c, so that (a, b, m) has
    `fraction` of the plane's mean face area.  The mesh is manifold and
    consistently oriented."""
    f = plane.faces
    mid = 0.5 * (plane.verts[f[:, 0]] + plane.verts[f[:, 1]])
    k = int(np.argmin(np.abs(np.linalg.norm(mid, axis=1) - near)))
    a, b, c = f[k]
    m = len(plane.verts)
    point = mid[k]
    if fraction:
        along = plane.verts[b] - plane.verts[a]
        off = plane.verts[c] - point
        off -= (off @ along) / (along @ along) * along
        area = fraction * surfaces.face_areas(plane.verts, f).mean()
        point = point + 2.0 * area / np.linalg.norm(along) * off / np.linalg.norm(off)
    return surfaces.TriMesh(np.concatenate([plane.verts, point[None]]),
                            np.concatenate([np.delete(f, k, axis=0),
                                            [[a, m, c], [m, b, c], [a, b, m]]]))


@pytest.fixture(scope="session")
def plane_with_sliver():
    """_plane_with_sliver(plane, near, fraction), as a fixture."""
    return _plane_with_sliver
