"""Pins of the exact bits of the Haar samplers, the verifiers, the preimage
solver, the homotopy family, recognition, the command line and the polar
oracle, and bounds on the memory that one batch call holds.

The digests are SHA-256 of the raw bytes of matrices and stacks and of the
JSON of reports (``to_dict``, which leaves ``elapsed`` out).  Those of the
samples, the three Haar verifiers and the constrained maxima were recorded
with stream version 4 (each Box-Muller pair from the tangent of the half
angle), and those of the constrained maxima with the ascent's gain stop
and level-set test at the rounding error of the diagonal product, after
checking that every sample moved by at most 2e-15 an entry from version 3
and that no report changed its failures; those of the
preimage reports, of ``preimage`` and of ``build_homotopy_matrix`` draw no
Haar sample and were recorded before the homotopy matrices were built as
stacks, the preimage verifier checked them one chunk at a time and the
unitarity predicates shared one stack core; that of recognition was
recorded before its generic and degenerate cases read the diagonal phases
through one rule; that of the command line (exit code, standard output
and standard error of each run) was recorded before the tables were
emitted through one function, and recorded again when ``verify`` reported
a missing ``--theta`` through its own parser, after checking that of the
33 runs and the file one writes only that run changed, to the ``verify``
usage and error lines; that of the polar oracle (codes and margins, the
boundary radius, the preimage solver's outside verdict) was recorded
before the polar margin was read through one radius core, and recorded
again when n = 1 and n = 2 were classified by one distance rule, after
checking that every code, radius and message stayed, that the margins
stayed bit for bit at n = 1 and n >= 3, and that 96 of the 708 at n = 2
moved, each by 1 ulp.  A change to any bit of a sample, a matrix or a
report changes a digest, so a stream change has to update them on
purpose.  The bits rest on numpy's float64 log and tan, so
the digests are checked only on the numpy release and machine type they
were recorded on, and the command line's only on the Python release whose
argparse wrote its usage text.
"""

import hashlib
import json
import platform
import sys
import tracemalloc

import numpy as np
import pytest

import diagprod.verify as verify_module
from diagprod import (
    build_extremal,
    build_homotopy_matrix,
    constrained_max_numeric,
    gamma,
    haar_special_unitary,
    monte_carlo_containment,
    omega_max,
    preimage,
    radius_of_theta,
    random_extremal,
    recognize_extremal,
    verify_preimage,
    verify_so_interval,
    verify_unit_disk,
)
from diagprod.matrices import (
    _haar_special_orthogonal_batch,
    _haar_special_unitary_batch,
    _haar_unitary_batch,
)
from diagprod.cli import main
from diagprod.region import _classify_su_many, _winding_codes_many

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
    ("unitary", 2, 33): "01e7d359da83f900a3819cdf1af5d4c1b39bdcba72ab21e8a389d84e3bb4c3e6",
    ("unitary", 2, 2048): "6a2bc80002f57775437648bdc4a134958fded595dc477d9c054ba43ee7b0ae1e",
    ("unitary", 3, 33): "885cab7b82c1fa330cf7cca9c8f769762fab2e328c19e7796d63ab6361126acb",
    ("unitary", 3, 2048): "65fa510fbbbd97215a30e5e179a96749e796dfd773a1c00a52af5cc1cdc70619",
    ("unitary", 6, 33): "356534fb98d3e38134e63cf9ec3075537c276776b04cc474eb3fa36d3cb1a675",
    ("unitary", 6, 2048): "0b4aef47ace5cce5556ea2d125b2d24da94f03e624bb2d5599b79269ce611166",
    ("unitary", 9, 33): "5b180a0e52b3218665b797320844a777e18908a74bbb16db4a0585b0820cfad6",
    ("unitary", 9, 2048): "7e2b8b33b1464cef577f53963e69d60c719abdda7d0db6517238366e99cb89c5",
    ("special_unitary", 2, 33): "e745ff46051ee3dfb2cd3283bff8b2f1befcd68e20de56643b2ed02adccb4f04",
    ("special_unitary", 2, 2048): "b03791c60f2a00ac982053c2b9f34b2598f5c4c1c6158dd1cf3c83af9c123a60",
    ("special_unitary", 3, 33): "f3040fb7d0998e835790b238bc08b3c4ccd5f9ff148ebf6452fa0385d5a5200c",
    ("special_unitary", 3, 2048): "525c13d491f528c1762901c36740e2895c6f0c3c5788a76a88a4f99fa9456d3a",
    ("special_unitary", 6, 33): "ef4edf59444c49a3324fb41e57317a297412be7638b6b39eec6a44b84dfb68d2",
    ("special_unitary", 6, 2048): "61816603cd150e8fcb9ec532aa9c14757618a457238e1d35e26a702d73c18c7e",
    ("special_unitary", 9, 33): "474ecdcd0b983c259c7c88f3bbc954a31fdd4bc18c628d2341261be5e4adc914",
    ("special_unitary", 9, 2048): "e5355c74dddaf04f2707e931bb843f3e145803f72a9ebe06151a1cb4a3d37970",
    ("special_orthogonal", 2, 33): "f7701e01b53dccc67ef54d5cabc1434407ede98a1eef74464188773314e2ef51",
    ("special_orthogonal", 2, 2048): "845dab337f931366be3eaf4fda303cf67cbe07f1e8644e90fc2783ef9d063aaf",
    ("special_orthogonal", 3, 33): "3827a67ddf4b1050545d0cad0cab8724bc74248584ace4c83f91218f159e5bb8",
    ("special_orthogonal", 3, 2048): "5b5192510791eb46f3f89ff031538cd6a572e901d20a7d9b7a96949370329b72",
    ("special_orthogonal", 6, 33): "518ca45b9e0ede3cb763ec1a728f766ddcc4a46adf14e975cf0c2c5f4bb864f8",
    ("special_orthogonal", 6, 2048): "a4ccccfcf7ef72047af1a3426b38d3e3743a2364bbd3e2a0671ab77c33036398",
    ("special_orthogonal", 9, 33): "c21a41c4335557033c7a382c924506b86edb7afbf1f1d674d245678b84b2d69b",
    ("special_orthogonal", 9, 2048): "076cec220030159972013955437595998e80ce0651217e217dd063593a9cb302",
}

REPORTS = {
    "monte_carlo": (
        lambda: monte_carlo_containment(6, 2048, 5),
        "8c6e5550e023c39ecd60682a7d4fde805cffff9ed1743816c8eed5f7af0848b7",
    ),
    "unit_disk": (
        lambda: verify_unit_disk(4, 2048, 5),
        "db73cd2b41ad982151825146e970473c5fae4804f0147f3dd2efb1f2a4db98c4",
    ),
    "so_interval": (
        lambda: verify_so_interval(6, 10000, 2048, 5),
        "175a956c4aa0706e93aa516202adeb02a267756ff2a38fbf0d56bd6522636226",
    ),
}

# (n, theta, seed), from theta = 0 to the cusp and n = 3 to 20
CONSTRAINED_MAX_DIGESTS = {
    (3, 0.0, 0): "d373f830c976c60255d4fd2cc0eddea4e363f28efb951dbec8c074d5c6f1f603",
    (4, 1e-3, 1): "a90a7f8474f0f2c69b45212a9d1135938558effcd06e5435e9dd869f37097bb0",
    (6, -2.0, 2): "7d33f7a26e20e1bc1814564380d176a265bfd637c42ade32a4a20736895361fb",
    (12, 1e-3, 0): "937915ad9703b5780f07067f5c3d4c35c31c361f5dc09d3a6f4fc64e8f2e16ba",
    (20, 0.4, 5): "00ed4fcb8734b25380f5771c2af2d30ff259bf98168bf222602c8c7507ce7363",
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

# recognize_extremal over recognition_corpus()
RECOGNITION_DIGEST = "d076200d883dd370861df1729e9901f35f020d61468e2c856054856ff8a0ac96"


def recognition_corpus():
    """For n = 2 to 8: diagonal SU(n) matrices whose phases include +0.0 and
    -0.0, boundary matrices at random alpha, at alpha = +-pi and at +-1e-5,
    and Haar samples, whose products lie inside (recognized as None)."""
    rng = np.random.default_rng(27)
    for n in range(2, 9):
        for zero in (0.0, -0.0):
            yield np.diag(np.full(n, complex(1.0, zero)))
            half_turns = [complex(-1.0, zero), complex(-1.0, -zero)]
            yield np.diag(half_turns + [complex(1.0, -zero)] * (n - 2))
        for _ in range(4):
            head = rng.uniform(-np.pi, np.pi, n - 1)
            yield np.diag(np.exp(1j * np.append(head, -head.sum())))
        for seed in range(12):
            for alpha in (None, np.pi, -np.pi, 1e-5, -1e-5):
                yield build_extremal(random_extremal(n, seed, alpha))
        for seed in range(3):
            yield haar_special_unitary(n, seed)


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


@recorded_here
def test_recognition_bits():
    digest = hashlib.sha256()
    for u in recognition_corpus():
        d = recognize_extremal(u)
        if d is None:
            digest.update(b"None")
        else:
            digest.update(np.float64(d.alpha).tobytes() + d.v.tobytes() + d.diag_phases.tobytes())
    assert digest.hexdigest() == RECOGNITION_DIGEST


# (argv, stubbed) per command-line run: every subcommand, csv and json for the
# tables, and the exits 1 (outside, failed report), 2 (argparse and library
# ValueError), 3 (unwritable --out) and 4 (unconverged solve); a stubbed run
# solves with a descent of no steps.  The ``--out`` run writes out.csv.
CLI_RUNS = [
    (["boundary", "--n", "3", "--samples", "8"], False),
    (["boundary", "--n", "5", "--samples", "7", "--seed", "4", "--format", "json"], False),
    (["boundary", "--n", "2", "--samples", "4"], False),
    (["boundary", "--n", "1", "--samples", "3", "--format", "json"], False),
    (["boundary", "--n", "4", "--samples", "6", "--out", "out.csv"], False),
    (["gamma-image", "--n", "4", "--alpha-samples", "3", "--y-samples", "2"], False),
    (["gamma_image", "--n", "3", "--alpha-samples", "2", "--y-samples", "3", "--format", "json"], False),
    (["membership", "--n", "5", "--re", "0.1", "--im", "0.05"], False),
    (["membership", "--n", "3", "--re", "0.2", "--im", "-0.1"], False),
    (["membership", "--n", "4", "--re", "1.5", "--im", "0"], False),
    (["membership", "--n", "2", "--re", "0.5", "--im", "0"], False),
    (["membership", "--n", "1", "--re", "1", "--im", "1e-12", "--tol", "1e-6"], False),
    (["extremal", "--n", "3", "--theta", "0.5"], False),
    (["extremal", "--n", "4", "--theta", "-2", "--format", "json"], False),
    (["extremal", "--n", "3", "--alpha", "1.0", "--seed", "7"], False),
    (["extremal", "--n", "5", "--alpha", "-0.3", "--format", "json"], False),
    (["preimage", "--n", "4", "--re", "0.2", "--im", "0.1"], False),
    (["preimage", "--n", "3", "--re", "2", "--im", "0"], False),
    (["preimage", "--n", "4", "--re", "0.2", "--im", "0.1"], True),
    (["verify", "--kind", "montecarlo", "--n", "3", "--trials", "50", "--seed", "3"], False),
    (["verify", "--kind", "preimage", "--n", "3", "--trials", "5", "--tol", "1e-8"], False),
    (["verify", "--kind", "preimage", "--n", "3", "--trials", "3"], True),
    (["verify", "--kind", "constrainedmax", "--n", "3", "--theta", "0.7"], False),
    (["verify", "--kind", "disk", "--n", "2", "--trials", "50", "--grid", "5"], False),
    (["verify", "--kind", "so", "--n", "3", "--sweep", "50", "--trials", "50"], False),
    (["verify", "--kind", "constrainedmax", "--n", "3"], False),
    (["verify", "--kind", "nope", "--n", "3"], False),
    (["verify", "--kind", "montecarlo", "--n", "0"], False),
    (["verify", "--help"], False),
    ([], False),
    (["boundary", "--n", "3", "--samples", "1"], False),
    (["membership", "--n", "3", "--re", "0", "--im", "0", "--tol", "nan"], False),
    (["boundary", "--n", "3", "--samples", "4", "--out", "missing/dir/out.csv"], False),
]
CLI_DIGEST = "2f7dc39559805238c65b89a3eb214b78bcb6be0bb95a9f5a870fad03c269e199"

# _classify_su_many(n, polar_points(n), 1e-9) for n = 1, 2, 3, 4, 8 and 50,
# radius_of_theta at 101 angles for n = 3, 8 and 50, and the message of
# preimage's outside ValueError
POLAR_DIGEST = "c74412b82ff09377b0c17a3aaf447506a36e100e7789339e954bf7c0e43d64c4"
POLAR_OUTSIDE = [(3, 2.0), (4, 1.5e308 + 1.5e308j), (5, -1e300), (8, -0.5 + 0.5j)]


def polar_points(n):
    """Random points around the region, points just inside and outside the
    boundary, and 0, 1, NaN, +-inf and -1e300."""
    rng = np.random.default_rng(28 + n)
    xy = rng.uniform(-1.2, 1.2, (600, 2))
    edge = gamma(n, rng.uniform(-np.pi, np.pi, 50))
    special = [0.0, 1.0, np.nan, np.inf, -np.inf, complex(np.inf, 1.0), complex(0.3, np.nan), -1e300]
    return np.concatenate([xy[:, 0] + 1j * xy[:, 1], edge * (1 - 1e-10), edge * (1 + 1e-10), special])


@recorded_here
@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse's usage text of Python 3.11")
def test_cli_bits(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage lines to it
    descend = verify_module._descend
    digest = hashlib.sha256()
    for argv, stubbed in CLI_RUNS:
        with monkeypatch.context() as patch:
            if stubbed:
                patch.setattr(verify_module, "_descend", lambda n, z, a, q: descend(n, z, a, q, 0))
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        out, err = capsys.readouterr()
        digest.update(repr((argv, code, out, err)).encode())
    digest.update((tmp_path / "out.csv").read_bytes())
    assert digest.hexdigest() == CLI_DIGEST


@recorded_here
def test_polar_bits():
    digest = hashlib.sha256()
    for n in (1, 2, 3, 4, 8, 50):
        codes, margins = _classify_su_many(n, polar_points(n), 1e-9)
        digest.update(codes.astype(np.int8).tobytes() + np.asarray(margins, np.float64).tobytes())
    for n in (3, 8, 50):
        for theta in np.linspace(-np.pi, np.pi, 101):
            p = radius_of_theta(n, theta)
            digest.update(np.float64([p.theta, p.r]).tobytes())
    for n, z in POLAR_OUTSIDE:
        with pytest.raises(ValueError) as info:
            preimage(n, z)
        digest.update(str(info.value).encode())
    assert digest.hexdigest() == POLAR_DIGEST


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

