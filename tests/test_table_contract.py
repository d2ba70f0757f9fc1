"""One table contract, two readers: the C emitters and the NumPy reference kernels.

``repro.compiler.codegen.tables`` names every inspection set and size once.
These tests hold the three things that follow from it: both backends hand
their kernel the same block; the generated C is, byte for byte, what it was
before the registrations moved there; and the two kernels fail alike.
"""

import hashlib

import numpy as np
import pytest

from repro.compiler.cache import ArtifactCache
from repro.compiler.codegen.c_backend import _C_METHOD_SPECS, c_compiler_available
from repro.compiler.options import SympilerOptions
from repro.compiler.sympiler import Sympiler
from repro.sparse.generators import fem_stencil_2d, laplacian_2d
from repro.sparse.ordering import minimum_degree_ordering

pytestmark = pytest.mark.skipif(not c_compiler_available("cc"), reason="no C compiler available")

METHODS = [name for name in _C_METHOD_SPECS if "@" not in name]
FACTORIZATIONS = [name for name in METHODS if name != "triangular-solve"]


#: A pattern VS-Block takes (deep etree: wavefront falls back) and one it
#: leaves alone (minimum-degree order: bushy etree, wavefront active).
_GRID = laplacian_2d(7, shift=0.1)
PATTERNS = {
    "fem": fem_stencil_2d(6, shift=0.25),
    "mindeg": minimum_degree_ordering(_GRID).symmetric_permute(_GRID),
}


def _operand(sym, method, A):
    """``A`` for a factorization, the pattern of its Cholesky factor for the solve."""
    if method != "triangular-solve":
        return A
    return sym.compile("cholesky", A).inspection.l_pattern_matrix()


# --------------------------------------------------------------------------- #
# (a) Both backends bind the same block
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("pattern", sorted(PATTERNS))
def test_both_backends_hold_the_same_table_block(pattern, method):
    sym = Sympiler(cache=ArtifactCache())
    operand = _operand(sym, method, PATTERNS[pattern])
    python, serial, wavefront = (
        sym.compile(method, operand, options=SympilerOptions(**options)).constants
        for options in ({}, {"backend": "c"}, {"backend": "c", "parallel": "wavefront"})
    )
    assert list(python) == list(serial) and list(serial)[0] == "_C_dims"
    for name, table in serial.items():
        assert table.dtype == python[name].dtype == np.int64
        assert table.flags.c_contiguous and python[name].flags.c_contiguous
        np.testing.assert_array_equal(python[name], table, err_msg=name)
    # What a wavefront module holds on top is its own (level schedule, pull
    # structure); the serial sets are in it unchanged and in the same order.
    extra = [name for name in wavefront if name not in serial]
    assert all(name.startswith("_C_wf_") for name in extra)
    assert [name for name in wavefront if name in serial] == list(serial)
    for name in list(serial)[1:]:
        np.testing.assert_array_equal(wavefront[name], serial[name], err_msg=name)
    if method != "triangular-solve":
        # ...and, for the factorizations, a suffix of the block and of the sizes.
        # (The wavefront triangular solve registers its pull structure first;
        # moving it would change generated C, which this PR does not.)
        assert list(wavefront)[: len(serial)] == list(serial)
        n_sizes = serial["_C_dims"].size
        np.testing.assert_array_equal(wavefront["_C_dims"][:n_sizes], serial["_C_dims"])


def test_the_wavefront_extras_are_exercised():
    """Not vacuous: on the bushy pattern every wavefront module has tables of its own."""
    sym = Sympiler(cache=ArtifactCache())
    options = SympilerOptions(backend="c", parallel="wavefront")
    for method in METHODS:
        artifact = sym.compile(method, _operand(sym, method, PATTERNS["mindeg"]), options=options)
        assert artifact.parallel_mode == "wavefront"
        assert any(name.startswith("_C_wf_") for name in artifact.constants), method


# --------------------------------------------------------------------------- #
# (d) The generated C did not move
# --------------------------------------------------------------------------- #
#: sha256 over the sources of four option bundles (all passes / no VS-Block /
#: no low-level passes / nothing), per pattern and per C method spec, computed
#: at the commit before the registrations moved into the contract (be3b8b0).
_OPTION_BUNDLES = (
    {},
    {"enable_vs_block": False},
    {"enable_low_level": False},
    {"enable_vi_prune": False, "enable_vs_block": False, "enable_low_level": False},
)
_PINNED_C_SOURCES = {
    ("fem", "triangular-solve"): "d7fe0879df2ab59d378e9a7afeed3805820bf60fab431c6454b0d5a8c3419a70",
    ("fem", "triangular-solve@wavefront"): "e9c0a49078cd3f254a3367ffb388374b7b546a154b5532b81dd36be07072fdcb",
    ("fem", "cholesky"): "9bcab37ee2d9ff8689586a40a7086eb866c4299829be72fdfe027fa99d3b2712",
    ("fem", "cholesky@wavefront"): "3fe8025575b08d368fd3a46a5faf5578ea3a1a8d78cb9bc7c926fa6aa55625aa",
    ("fem", "ldlt"): "37c9e3f29dc832e46fe30fc76fe8ad4f972b9a9e540168df31c202411a92a7b8",
    ("fem", "ldlt@wavefront"): "4f6f32307674a638ee26396f60d64427d3121f7fed5fbfea9ea543a2d402db34",
    ("fem", "lu"): "10ec6cd934f07ba9e0d067f7035b06d6463e7783cb0edb0315caa836a1338c29",
    ("fem", "lu@wavefront"): "511bd40b434e5ba3ae4624815bda27f6853c8f75624389156edac2fb4ef82f27",
    ("fem", "ic0"): "ec54cc4401c1b9c810643ae588c66b7f8dc82c7d3d1e6907380344f73c3c9cd1",
    ("fem", "ic0@wavefront"): "a94606aa1937bd05b2a17d7e6074c26e7d0c9ed313833655e486f46292da2540",
    ("fem", "ilu0"): "5096ae3658082505cffb5315d8dea488d235e4321a63b64af1841c8e4cd0722f",
    ("fem", "ilu0@wavefront"): "a9bf0f0173eef9115297d565ba22bc15c8474fcea473e418f7ca988364b6b143",
    ("mindeg", "triangular-solve"): "d7fe0879df2ab59d378e9a7afeed3805820bf60fab431c6454b0d5a8c3419a70",
    ("mindeg", "triangular-solve@wavefront"): "7c0efab1e00bb5dae2206409d1dff0182b39588f2caa3d92066496377e8081d0",
    ("mindeg", "cholesky"): "bbf36846aff686f28e37b4fcd22a3182aa3e5509dca71ee5e3b68db84e9986d5",
    ("mindeg", "cholesky@wavefront"): "6fbee8d1332844bf9670052455cb3206305257c213794d80adef4a4e90149f6b",
    ("mindeg", "ldlt"): "aa85eb4aecc13159058e84c696d5554177bb81061748f61a92a11b20b7dce414",
    ("mindeg", "ldlt@wavefront"): "b2e52afc3a9b7a7b086006da55135ef5d654cfff9dcd9505652598b82331bfbf",
    ("mindeg", "lu"): "10ec6cd934f07ba9e0d067f7035b06d6463e7783cb0edb0315caa836a1338c29",
    ("mindeg", "lu@wavefront"): "0565d3b0b2bcbf06bcb5fc59b589c23f4d79f616efcc61d587ceb7a3f65f8974",
    ("mindeg", "ic0"): "ec54cc4401c1b9c810643ae588c66b7f8dc82c7d3d1e6907380344f73c3c9cd1",
    ("mindeg", "ic0@wavefront"): "8001cee2f86a0870d23a10af88a3fcb0f43e72a8d913b37cabb1810dbb889f3e",
    ("mindeg", "ilu0"): "5096ae3658082505cffb5315d8dea488d235e4321a63b64af1841c8e4cd0722f",
    ("mindeg", "ilu0@wavefront"): "e1c36ca52fb525e35db750ff5b1404161796599577e2620bea35f46afccce810",
}


def test_every_c_method_spec_is_pinned():
    assert {key for _, key in _PINNED_C_SOURCES} == set(_C_METHOD_SPECS)


@pytest.mark.parametrize("pattern,key", sorted(_PINNED_C_SOURCES))
def test_generated_c_is_byte_identical_to_the_parent_commit(pattern, key):
    method, _, wavefront = key.partition("@")
    sym = Sympiler(cache=ArtifactCache())
    operand = _operand(sym, method, PATTERNS[pattern])
    digest = hashlib.sha256()
    for bundle in _OPTION_BUNDLES:
        options = SympilerOptions(backend="c", parallel="wavefront" if wavefront else "none", **bundle)
        artifact = sym.compile(method, operand, options=options)
        assert artifact.module.method == key
        digest.update(artifact.source.encode() + b"\0")
    assert digest.hexdigest() == _PINNED_C_SOURCES[pattern, key]


# --------------------------------------------------------------------------- #
# One failure contract
# --------------------------------------------------------------------------- #
def _outcome(artifact, A):
    """``("ok", values)`` or ``(exception type, message)`` of one numeric call."""
    try:
        raw = artifact.factorize_arrays(A.indptr, A.indices, A.data)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc).__name__, str(exc)
    return "ok", np.concatenate(raw if isinstance(raw, tuple) else (raw,))


@pytest.mark.parametrize("vs_block", [True, False], ids=["default", "no-vs-block"])
@pytest.mark.parametrize("kernel", FACTORIZATIONS)
def test_both_backends_fail_alike(kernel, vs_block):
    """Same input, same exception type, same text, same *global* column."""
    A = laplacian_2d(6)
    diagonal = [int(A.indptr[j] + np.searchsorted(A.col_rows(j), j)) for j in range(A.n)]
    # A negative and a zero pivot candidate in every column, and a NaN in the
    # first column, in the middle and in the last entry.
    cases = [(pos, value) for value in (-5.0, 0.0) for pos in diagonal]
    cases += [(k, np.nan) for k in (0, 40, A.nnz - 1)]
    sym = Sympiler(cache=ArtifactCache())
    python, c = (
        sym.compile(kernel, A, options=SympilerOptions(backend=backend, enable_vs_block=vs_block))
        for backend in ("python", "c")
    )
    if kernel in ("cholesky", "ldlt"):
        assert bool(python.kernel.meta.get("vs_block")) == vs_block
    failed_at = set()
    for pos, value in cases:
        bad = A.copy()
        bad.data[pos] = value
        expected, got = _outcome(c, bad), _outcome(python, bad)
        assert got[0] == expected[0], (pos, value, got, expected)
        if expected[0] == "ok":
            np.testing.assert_array_equal(got[1], expected[1])  # NaN for NaN
            continue
        assert expected[0] == "ValueError" and got[1] == expected[1], (pos, value)
        assert got[1] == _C_METHOD_SPECS[kernel].failure.format(column=int(got[1].rsplit(" ", 1)[1]))
        failed_at.add(int(got[1].rsplit(" ", 1)[1]))
    # Not vacuous: every kernel failed, and the positive-pivot ones in columns
    # all over the matrix (inside supernodes included), not just at column 0.
    assert 0 in failed_at
    if kernel in ("cholesky", "ic0"):
        assert len(failed_at) >= 30
