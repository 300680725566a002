"""Pins of the exact bits of the Haar samplers, the verifiers, the preimage
solver and the homotopy family, and bounds on the memory that one batch call
holds.

The digests are SHA-256 of the raw bytes of matrices and stacks and of the
JSON of reports (``to_dict``, which leaves ``elapsed`` out).  Those of the
samples and the three Haar verifiers were recorded before the samplers and
the winding core wrote their temporaries into per-call buffers; those of the
constrained maxima before the ascent and its retraction shared one line
search and before the ascent left its stopped restarts alone; those of the
preimage reports, of ``preimage`` and of ``build_homotopy_matrix`` before the
homotopy matrices were built as stacks, the preimage verifier checked them
one chunk at a time and the unitarity predicates shared one stack core.  A
change to any bit of a sample, a matrix or a report changes a digest, so a
stream change has to update them on purpose.  The bits rest on numpy's
float64 log, cos and sin, so the digests are checked only on the numpy
release and machine type they were recorded on.
"""

import hashlib
import json
import platform
import tracemalloc

import numpy as np
import pytest

from diagprod import (
    build_homotopy_matrix,
    constrained_max_numeric,
    gamma,
    monte_carlo_containment,
    omega_max,
    preimage,
    verify_preimage,
    verify_so_interval,
    verify_unit_disk,
)
from diagprod.matrices import (
    _haar_special_orthogonal_batch,
    _haar_special_unitary_batch,
    _haar_unitary_batch,
)
from diagprod.region import _winding_codes_many

recorded_here = pytest.mark.skipif(
    not (np.__version__.startswith("2.4.") and platform.machine() == "x86_64"),
    reason="digests recorded with numpy 2.4 on x86-64",
)

SAMPLERS = {
    "unitary": _haar_unitary_batch,
    "special_unitary": _haar_special_unitary_batch,
    "special_orthogonal": _haar_special_orthogonal_batch,
}

# stacks drawn with seed 11, start 0
HAAR_DIGESTS = {
    ("unitary", 2, 33): "10a6659ca5ab9e4ac6011f8bd4d47302c8430387241d3383825ea8cf9a167ad2",
    ("unitary", 2, 2048): "a27db3f526dea45b2129d2a3de26c4d4ab13dd71deea04792568c6ac20c987da",
    ("unitary", 3, 33): "2b1e1fd0b7fd37b0d7a015e46b96b356ecd00836adac73f27b170108cd8c5013",
    ("unitary", 3, 2048): "61ed7e6cf81a06589623258430806d6bf8d5f849a6aa8c4afe7c58e0df936ff4",
    ("unitary", 6, 33): "0dddc7eaa16aa86bffce714810f46382b976e2b79f4bc6173252a594502a6bae",
    ("unitary", 6, 2048): "7ad535001de6219c4ef6672139f77a5a2194c500dbd67080102020c3082a8fda",
    ("unitary", 9, 33): "f327565b73913c0138bdd27b9dc7abfa274e9f5895380d58dc6c1c074ec77c93",
    ("unitary", 9, 2048): "2f44d337a70cfc897fbc4fd9e73ff934d545a2f5af0d8f4f5489137e94e5dbbf",
    ("special_unitary", 2, 33): "998e87fe5638c26de668c1461357ffa5cf5768278cea32d99c56f90197580a0c",
    ("special_unitary", 2, 2048): "34ae90c5906d05ab4417c214fe54ac5472408c3ec753c10cc51cd8073abd8d05",
    ("special_unitary", 3, 33): "9f3eafc6d75ed9567d73d11e5037ca99fa14061fe3fb32bbe263cb95c58ce898",
    ("special_unitary", 3, 2048): "d8a21824f2e886db426d6593b2084be74981d4e2655cdc552c7391e0230aa229",
    ("special_unitary", 6, 33): "ec4ceb6edcd92c8c04e3cd4226241e9324af323794841e5e838975f7d1b791a6",
    ("special_unitary", 6, 2048): "84d79ceaaef80cd6922159143d6aa3da2b0634416d3b2177b11f2911261880fe",
    ("special_unitary", 9, 33): "0e669d8b2ec25d6515b07bf5ebea877faedb88fe5c0ea98e750f1fc4388acd7b",
    ("special_unitary", 9, 2048): "c421382c84370c2c40dccc0eeefc8500ed56f56cc1d6b6385a7bff17b2efc4db",
    ("special_orthogonal", 2, 33): "41261ea3ae2364d7ea0aacd6bb4e58232dbcbfedec0612cb0bebf18d9781517d",
    ("special_orthogonal", 2, 2048): "7416d3b6c6430fdbab50ac96b030cd266fe02c1b3b274bf386b34fbe24494b87",
    ("special_orthogonal", 3, 33): "90d6c9ed9549519a1b3e3daf42ed791f1f4b9b42ed428e9f7aaa1c3817dab580",
    ("special_orthogonal", 3, 2048): "3a4c674ec0f8f3b6167e5692def740bf5c18fa0043b9d86136188302fb976eda",
    ("special_orthogonal", 6, 33): "d9f347d46d75e31d724a6096c6f0ec3462f6147c555844534a8efb3bd267b01c",
    ("special_orthogonal", 6, 2048): "ebfc92a6aba858fe9c2fcfdcb090d4e070617a4e0649fd6630d6db1d77e670aa",
    ("special_orthogonal", 9, 33): "aa74174f39f50a0597a8076722d1409c9cd580a481e8b79a6e6051fbcf6551a3",
    ("special_orthogonal", 9, 2048): "219f8f482593602af808863c42ef860bac1ac268ae820b9ca5696f25941f63cd",
}

REPORTS = {
    "monte_carlo": (
        lambda: monte_carlo_containment(6, 2048, 5),
        "0c1572d55cba4cb744b2dea1f78195c590b3c28b67695978833e2fca8a40cd13",
    ),
    "unit_disk": (
        lambda: verify_unit_disk(4, 2048, 5),
        "952cbb5a16aff12ef2d51f5ea719c783f76f0da00f0ee0d91406cfaf4239e39e",
    ),
    "so_interval": (
        lambda: verify_so_interval(6, 10000, 2048, 5),
        "4257ddff1c1d2fdaa6face469f50f794dc4f4e2be2262c296719bf4504df533f",
    ),
}

# (n, theta, seed), from theta = 0 to the cusp and n = 3 to 20
CONSTRAINED_MAX_DIGESTS = {
    (3, 0.0, 0): "c417bfce78e57861eabe2e1fbd9c8577fc58fbd94988030b65954ec63203cdb3",
    (4, 1e-3, 1): "22e69d37047598327e392e4ccb15cac7ebc71dd799c24da7ce72c9e6d0e243f8",
    (6, -2.0, 2): "50b3097d8428118428cfb97f58a9e749e92198ea2db29f0e505e50cb20128147",
    (12, 1e-3, 0): "eba1d7d466e55076e58784e551326ffc211d66e44587c2bcb212776483650845",
    (20, 0.4, 5): "748dad13e60c409e87817bc14866d8989ea77e8ea63bff825d34d928ce98f89a",
}


# verify_preimage(n, 256, 5)
PREIMAGE_REPORT_DIGESTS = {
    3: "73928a83af76df84d39dfa73944ff1284732b11ac0b44460ee5fda026115ae20",
    4: "045584251e72640a91892109f3d51e8907ecaef7af7efb5889d99fbb8815661e",
    8: "5ba10c681f1bf1b52bd8b17bc26c96870068c980561690f24fec2e06b6b17a0d",
}

# preimage(n, z, 1e-9) for targets (n, z) named by their kind
PREIMAGE_TARGETS = {
    "interior-3": (3, lambda: 0.5 * gamma(3, 2.0)),
    "interior-5": (5, lambda: 0.7 * gamma(5, -1.1)),
    "real": (4, lambda: 0.6 + 0j),
    "near-boundary": (4, lambda: (1.0 - 1e-6) * gamma(4, 1.3)),
    "near-cusp": (3, lambda: (1.0 - 4.6e-3) * gamma(3, -0.0164)),
    "origin": (6, lambda: 0j),
}
PREIMAGE_DIGESTS = {
    "interior-3": "21cbe002555fbbe140fc0fdf07719ecce34ed9689e630787acb60c5cbd2d22a8",
    "interior-5": "69abb2e1ba4453193ee97d04c6a69e1de15c7fba2b6b83cd05a499d4bbf2788b",
    "real": "babe7eae6ad08bed898d0d32a19269f9123bd381b6fab98c2673ab04a395dbe8",
    "near-boundary": "a63f00ee5a0fa47d4433a419297a661c7dde02cacaee5121a3944f23e5f690f9",
    "near-cusp": "57a22065f1e6681825f08f11f13f99c96c9a4c770ac2ee889bc3934febc3bba9",
    "origin": "8a9fc650afc562836d7828bdf089ee9b47cac5014d5375e2ce05878e47c9088b",
}

# build_homotopy_matrix(n, alpha, omega), omega None for omega_max(n)
HOMOTOPY_DIGESTS = {
    (2, -np.pi, 0.2): "f407e487652a35459187005a52ca820ec856833f958e87d4619ccb16edf71000",
    (3, 0.7, 0.3): "36157ae8c8b7c61efd52718c49ecb258d1234ab83a36bc36817832c044a58a1d",
    (4, -2.5, None): "0d469fed97db9780184f5951effa14dc1812a526e34ba59842b7ab4651a934b9",
    (6, np.pi, 0.0): "b2631e1257263ad379ab7f5a6191cea90b22dfba16eb215ebb1d5f99bf0cca61",
    (8, 1e-3, 0.5): "a363302bc4faeae1e26e4edd0fa0a983d950ec3ed984a6b97c8de5512167662a",
}

def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@recorded_here
@pytest.mark.parametrize("group, n, count", sorted(HAAR_DIGESTS))
def test_haar_stack_bits(group, n, count):
    stack = SAMPLERS[group](n, 11, count)
    assert stack.flags.c_contiguous
    assert sha256(stack.tobytes()) == HAAR_DIGESTS[group, n, count]


@recorded_here
@pytest.mark.parametrize("kind", sorted(REPORTS))
def test_report_bits(kind):
    run, digest = REPORTS[kind]
    assert sha256(json.dumps(run().to_dict(), sort_keys=True).encode()) == digest


@recorded_here
@pytest.mark.parametrize("n, theta, seed", sorted(CONSTRAINED_MAX_DIGESTS))
def test_constrained_max_report_bits(n, theta, seed):
    rep = constrained_max_numeric(n, theta, seed=seed)
    digest = sha256(json.dumps(rep.to_dict(), sort_keys=True).encode())
    assert digest == CONSTRAINED_MAX_DIGESTS[n, theta, seed]


@recorded_here
@pytest.mark.parametrize("n", sorted(PREIMAGE_REPORT_DIGESTS))
def test_preimage_report_bits(n):
    digest = sha256(json.dumps(verify_preimage(n, 256, 5).to_dict(), sort_keys=True).encode())
    assert digest == PREIMAGE_REPORT_DIGESTS[n]


@recorded_here
@pytest.mark.parametrize("kind", sorted(PREIMAGE_DIGESTS))
def test_preimage_bits(kind):
    n, target = PREIMAGE_TARGETS[kind]
    assert sha256(preimage(n, target(), 1e-9).tobytes()) == PREIMAGE_DIGESTS[kind]


@recorded_here
@pytest.mark.parametrize("n, alpha, omega", sorted(HOMOTOPY_DIGESTS, key=str))
def test_homotopy_matrix_bits(n, alpha, omega):
    u = build_homotopy_matrix(n, alpha, omega_max(n) if omega is None else omega)
    assert sha256(u.tobytes()) == HOMOTOPY_DIGESTS[n, alpha, omega]


def traced_peak(call) -> int:
    """Peak bytes traced by tracemalloc during a second call (the first fills
    the caches of the boundary polyline and its boxes)."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """Bounds set about 10% above the peaks measured with per-call buffers:
    4.06 MB and 2.19 MB, against 6.14 MB and 4.41 MB before them; and at
    n = 100, with chunks sized by n^2, 26.4 MB for any trial count, against
    52.5 MB for 128 trials in one chunk.  The preimage check at n = 100 reads
    30.8 MB, against 0.7 MB when it built and checked one matrix at a time."""

    def test_monte_carlo_containment(self):
        assert traced_peak(lambda: monte_carlo_containment(6, 2048, 0)) <= 4.5e6

    def test_winding_block(self):
        xy = np.random.default_rng(1).uniform(-1.1, 1.1, (128, 2))
        pts = xy[:, 0] + 1j * xy[:, 1]
        assert traced_peak(lambda: _winding_codes_many(4, pts, 8192, 1e-9)) <= 2.4e6

    def test_monte_carlo_containment_at_large_n(self):
        # regression: a chunk of up to 8192 matrices whatever n, so the peak
        # grew with the trial count, about 0.4 MB a trial at n = 100
        assert traced_peak(lambda: monte_carlo_containment(100, 128, 0)) <= 29e6

    def test_preimage_check_at_large_n(self):
        # the rebuilt preimages are checked one chunk at a time, one stack of
        # _chunk(n) matrices as for the Haar samples: 30.8 MB
        assert traced_peak(lambda: verify_preimage(100, 200, 0)) <= 34e6
