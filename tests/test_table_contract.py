"""One table contract, two readers: the C emitters and the NumPy reference kernels.

``repro.compiler.codegen.tables`` names every inspection set and size once.
These tests hold the three things that follow from it: both backends hand
their kernel the same block; the generated C is pinned byte for byte, so a
change to it is deliberate; and the two kernels fail alike.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.compiler.cache import ArtifactCache
from repro.compiler.codegen.c_backend import _C_METHOD_SPECS, c_compiler_available
from repro.compiler.options import SympilerOptions
from repro.compiler.sympiler import Sympiler
from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import fem_stencil_2d, laplacian_2d, laplacian_3d, sparse_rhs
from repro.sparse.ordering import minimum_degree_ordering
from repro.symbolic.inspector import CholeskyInspector

needs_cc = pytest.mark.skipif(not c_compiler_available("cc"), reason="no C compiler available")

METHODS = list(_C_METHOD_SPECS)
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
@needs_cc
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
    # A wavefront module appends its own tables (level schedule, pull
    # structure) after the serial block: the serial block is a prefix of its
    # block, and the serial sizes a prefix of its sizes.
    assert list(wavefront)[: len(serial)] == list(serial)
    assert all(name.startswith("_C_wf_") for name in list(wavefront)[len(serial) :])
    for name in list(serial)[1:]:
        np.testing.assert_array_equal(wavefront[name], serial[name], err_msg=name)
    n_sizes = serial["_C_dims"].size
    np.testing.assert_array_equal(wavefront["_C_dims"][:n_sizes], serial["_C_dims"])


@needs_cc
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
#: no low-level passes / nothing), per pattern, C method spec and parallel
#: mode, re-based when each kernel's step body became one C function called by
#: the serial loop and the wavefront job (and the unrolled switch went), and
#: re-based for Cholesky, LDLᵀ and LU when the supernode loop went to one block
#: update per descendant supernode (the work-buffer runtime, which LU shares,
#: lost its multiplier slot).
_OPTION_BUNDLES = (
    {},
    {"enable_vs_block": False},
    {"enable_low_level": False},
    {"enable_vi_prune": False, "enable_vs_block": False, "enable_low_level": False},
)
_PINNED_C_SOURCES = {
    ("fem", "triangular-solve", "none"): "470c2548b8ad5f92401e7c54fa77379bbf64a993096a01f411f61eb4c61915a3",
    ("fem", "triangular-solve", "wavefront"): "02087801a9060c90d1211df40f8826ac58946e9c6fec85ff4918688ad850e900",
    ("fem", "cholesky", "none"): "9f2de81bf4523fbfcb290fb89e705774d52e479996104068c9acbb1cfe10353e",
    ("fem", "cholesky", "wavefront"): "f665d72199ccbcbf304ba9fdcc24db4847217a857c3132f8705024a08fa7b9db",
    ("fem", "ldlt", "none"): "f18bba16c64187d3811cef6e10205e518ba615ea216b85ca3b3e1820ca3b70b4",
    ("fem", "ldlt", "wavefront"): "e842bc9c86d170097514106b9e8771871744defdcb2bebc1826ae2de7a950573",
    ("fem", "lu", "none"): "c854152e405f37779780092b96a72aaf3ff16cefb789422f6bd836986994759e",
    ("fem", "lu", "wavefront"): "3d749b40886ebecbc0749bdb2c85cdd4a0db4aa4bb9b52cce5b85e762f83c110",
    ("fem", "ic0", "none"): "9e98e67afad37ef5b57724e77219583238fb22b3d48e0c14797e5fc8bcd7e40a",
    ("fem", "ic0", "wavefront"): "2c54e41fc1bdef8c790bb0e46403ee0663c218720e0c531c7021f5e9a4b92410",
    ("fem", "ilu0", "none"): "98774e472d61abe0b307e94d32bc6eb40c36744a74ab829cf374b455cabdc44a",
    ("fem", "ilu0", "wavefront"): "9f064cf49a9c4419bcecf8449c3c0d717c16ea037477f2a56da149402bafd121",
    ("mindeg", "triangular-solve", "none"): "470c2548b8ad5f92401e7c54fa77379bbf64a993096a01f411f61eb4c61915a3",
    ("mindeg", "triangular-solve", "wavefront"): "e4409d83d9e05e67cf5223349ce72551b0ecff4896ce1cac606867eecc61a71f",
    ("mindeg", "cholesky", "none"): "c145aba4cc4875645c51137d45fbc7492bbd086cd63a02d3f4618a724293c65d",
    ("mindeg", "cholesky", "wavefront"): "a387fe0330aa39e0ca53018fe477eb1b5a4663373b6effc4b4979ee4d2839dfa",
    ("mindeg", "ldlt", "none"): "8383d3900d1e3dd95ce6abbcff7f1caeaeaf714cfc7efa2764c54d4ad42e8e0e",
    ("mindeg", "ldlt", "wavefront"): "d19359edcb1cca82c422a487abd1ba1841f19deda6cd684fe559a7268b9dd471",
    ("mindeg", "lu", "none"): "c854152e405f37779780092b96a72aaf3ff16cefb789422f6bd836986994759e",
    ("mindeg", "lu", "wavefront"): "761978ebdbb999bd0e0771c5adcb98220d96f33582fc9c381d051e90bd1ff662",
    ("mindeg", "ic0", "none"): "9e98e67afad37ef5b57724e77219583238fb22b3d48e0c14797e5fc8bcd7e40a",
    ("mindeg", "ic0", "wavefront"): "70bd8dd10041bbd4efd8f53c7c8a59122d551521531a0b6b8c42120b4777be71",
    ("mindeg", "ilu0", "none"): "98774e472d61abe0b307e94d32bc6eb40c36744a74ab829cf374b455cabdc44a",
    ("mindeg", "ilu0", "wavefront"): "0c58db5d0252c423e72511a4b9fdb1354af785896f446e561ce8bb2afdb03779",
}


# --------------------------------------------------------------------------- #
# The table blocks did not move
# --------------------------------------------------------------------------- #
#: The patterns above and a 3-D one whose supernodes are wide enough to block.
_GRID_3D = laplacian_3d(7, shift=0.1)
TABLE_PATTERNS = {**PATTERNS, "mindeg3d": minimum_degree_ordering(_GRID_3D).symmetric_permute(_GRID_3D)}
#: The serial methods, and the triangular solve once more with a sparse right-hand side.
TABLE_CASES = [*METHODS, "triangular-solve/sparse-rhs"]

#: sha256 over the ordered keys and bytes of ``artifact.constants`` on the python backend, one per
#: option bundle of ``_OPTION_BUNDLES`` (in its order), computed at the commit before the tables
#: became array expressions (7a05fcc); the supernodal Cholesky / LDLᵀ blocks re-based when the
#: descendant table became one row per descendant supernode.  Needs no C compiler: the contract
#: is backend-independent.
_PINNED_TABLE_BLOCKS = {
    ("fem", "triangular-solve"): (
        "32a2930371574950474fe31de4ff0ae6e5435e3a5d44591f85ea04dbc5aecb38",
        "c69f87eb9d7f99fe8d804334c079c55dac220f60b2cc876b0c4cbac923243f75",
        "32a2930371574950474fe31de4ff0ae6e5435e3a5d44591f85ea04dbc5aecb38",
        "d30c183250cc3e60b58f114f3f73111e20577e01d6c91169391e5aca2239c9df",
    ),
    ("fem", "cholesky"): (
        "05a61ab3fcb4814b3daca33d1f5eae42cec05d17df27fdd7d8a3e5b74fa5e818",
        "ef1da2ebbcfd3a5a42bf139da9df9921aaebe1c522b79a14918d135fa9e2cd54",
        "05a61ab3fcb4814b3daca33d1f5eae42cec05d17df27fdd7d8a3e5b74fa5e818",
        "ef1da2ebbcfd3a5a42bf139da9df9921aaebe1c522b79a14918d135fa9e2cd54",
    ),
    ("fem", "ldlt"): (
        "05a61ab3fcb4814b3daca33d1f5eae42cec05d17df27fdd7d8a3e5b74fa5e818",
        "491deb123dbb503e9e2d8df05f5ae285b75c76d321fe9eeff40a922cedd15e1b",
        "05a61ab3fcb4814b3daca33d1f5eae42cec05d17df27fdd7d8a3e5b74fa5e818",
        "491deb123dbb503e9e2d8df05f5ae285b75c76d321fe9eeff40a922cedd15e1b",
    ),
    ("fem", "lu"): (
        "9648d8cdcc7de5e76c9d5aed33de19eeeb5ffa5d8f615644085e68f63c54e02f",
        "9648d8cdcc7de5e76c9d5aed33de19eeeb5ffa5d8f615644085e68f63c54e02f",
        "9648d8cdcc7de5e76c9d5aed33de19eeeb5ffa5d8f615644085e68f63c54e02f",
        "9648d8cdcc7de5e76c9d5aed33de19eeeb5ffa5d8f615644085e68f63c54e02f",
    ),
    ("fem", "ic0"): (
        "603683607f88fdbbbd7f5e4c8ea64c5db2dfa67348bf2213cb9782e614e4780b",
        "603683607f88fdbbbd7f5e4c8ea64c5db2dfa67348bf2213cb9782e614e4780b",
        "603683607f88fdbbbd7f5e4c8ea64c5db2dfa67348bf2213cb9782e614e4780b",
        "603683607f88fdbbbd7f5e4c8ea64c5db2dfa67348bf2213cb9782e614e4780b",
    ),
    ("fem", "ilu0"): (
        "ead3f61308325e56b95e7191821d9f7b699afe75bf7ed3e8909a6488fbb9a6f1",
        "ead3f61308325e56b95e7191821d9f7b699afe75bf7ed3e8909a6488fbb9a6f1",
        "ead3f61308325e56b95e7191821d9f7b699afe75bf7ed3e8909a6488fbb9a6f1",
        "ead3f61308325e56b95e7191821d9f7b699afe75bf7ed3e8909a6488fbb9a6f1",
    ),
    ("fem", "triangular-solve/sparse-rhs"): (
        "dbf7de32ac46cff4038e6a4a05e0e8a8e285ed10d2c59209bccf8d0096f57d78",
        "a33ea9de056d65e105a489c58a2daf1c43c6c83d35d29a4c9076f8dd817c0c63",
        "dbf7de32ac46cff4038e6a4a05e0e8a8e285ed10d2c59209bccf8d0096f57d78",
        "d30c183250cc3e60b58f114f3f73111e20577e01d6c91169391e5aca2239c9df",
    ),
    ("mindeg", "triangular-solve"): (
        "f1e145679fba7d7b214de24fdac922271ba9fa272702805025ae239db3f739c1",
        "f1e145679fba7d7b214de24fdac922271ba9fa272702805025ae239db3f739c1",
        "f1e145679fba7d7b214de24fdac922271ba9fa272702805025ae239db3f739c1",
        "eb24e653c9423bfddabe92fe68ba936d472ea9387e1e03567f5d9f465b985578",
    ),
    ("mindeg", "cholesky"): (
        "2fa600e1591a6c05d77e7f573ec9e2417bc9e99a19fba4fe5e2dc9ac2080537a",
        "2fa600e1591a6c05d77e7f573ec9e2417bc9e99a19fba4fe5e2dc9ac2080537a",
        "2fa600e1591a6c05d77e7f573ec9e2417bc9e99a19fba4fe5e2dc9ac2080537a",
        "2fa600e1591a6c05d77e7f573ec9e2417bc9e99a19fba4fe5e2dc9ac2080537a",
    ),
    ("mindeg", "ldlt"): (
        "497563b42066db877b7eb6132602e44f51fa439b8530c7877673d0018ec3eb3e",
        "497563b42066db877b7eb6132602e44f51fa439b8530c7877673d0018ec3eb3e",
        "497563b42066db877b7eb6132602e44f51fa439b8530c7877673d0018ec3eb3e",
        "497563b42066db877b7eb6132602e44f51fa439b8530c7877673d0018ec3eb3e",
    ),
    ("mindeg", "lu"): (
        "54f6a530e5942b4cb9a5e9d7be0f06387fd2758ca63b8fc1498c67473d30441a",
        "54f6a530e5942b4cb9a5e9d7be0f06387fd2758ca63b8fc1498c67473d30441a",
        "54f6a530e5942b4cb9a5e9d7be0f06387fd2758ca63b8fc1498c67473d30441a",
        "54f6a530e5942b4cb9a5e9d7be0f06387fd2758ca63b8fc1498c67473d30441a",
    ),
    ("mindeg", "ic0"): (
        "55820ced32a441a36fe622ec1b95c5e64f39ea49eefe8c3487ce238c1c7b0fdd",
        "55820ced32a441a36fe622ec1b95c5e64f39ea49eefe8c3487ce238c1c7b0fdd",
        "55820ced32a441a36fe622ec1b95c5e64f39ea49eefe8c3487ce238c1c7b0fdd",
        "55820ced32a441a36fe622ec1b95c5e64f39ea49eefe8c3487ce238c1c7b0fdd",
    ),
    ("mindeg", "ilu0"): (
        "59309656af29fd743c74c9db5e03683407753f6834b9c44069251e7fcb03af13",
        "59309656af29fd743c74c9db5e03683407753f6834b9c44069251e7fcb03af13",
        "59309656af29fd743c74c9db5e03683407753f6834b9c44069251e7fcb03af13",
        "59309656af29fd743c74c9db5e03683407753f6834b9c44069251e7fcb03af13",
    ),
    ("mindeg", "triangular-solve/sparse-rhs"): (
        "44f2a8ae6dc241c77d6ce477977e1661deb3d4b6a2b62c794e14044cba09616b",
        "44f2a8ae6dc241c77d6ce477977e1661deb3d4b6a2b62c794e14044cba09616b",
        "44f2a8ae6dc241c77d6ce477977e1661deb3d4b6a2b62c794e14044cba09616b",
        "eb24e653c9423bfddabe92fe68ba936d472ea9387e1e03567f5d9f465b985578",
    ),
    ("mindeg3d", "triangular-solve"): (
        "5e0cd27c76a2f5a72bfd3627f63cd697517c0a4f62b3b36b7c19593ebfd5777f",
        "979b2b213767a41ced47ac36ad903574b4064ea03480e314a2d4533e6cc1d45c",
        "5e0cd27c76a2f5a72bfd3627f63cd697517c0a4f62b3b36b7c19593ebfd5777f",
        "c46f879450ba7b9aef248d5ce50e2afabfea2e6b046d31e6fe12e95c0f7b6c64",
    ),
    ("mindeg3d", "cholesky"): (
        "232b962c6c2f08e5afd9a81b4cad37c0ca7d63035efc072439625d7d2f9dd1c3",
        "d98146efee572a89337b0f1959b74da96e4bb20613f5db2106c9b44e98d5afab",
        "232b962c6c2f08e5afd9a81b4cad37c0ca7d63035efc072439625d7d2f9dd1c3",
        "d98146efee572a89337b0f1959b74da96e4bb20613f5db2106c9b44e98d5afab",
    ),
    ("mindeg3d", "ldlt"): (
        "232b962c6c2f08e5afd9a81b4cad37c0ca7d63035efc072439625d7d2f9dd1c3",
        "744ea5404948ca221ce8130024c18fd0facb62e9215fc1b2dccd763753ec3521",
        "232b962c6c2f08e5afd9a81b4cad37c0ca7d63035efc072439625d7d2f9dd1c3",
        "744ea5404948ca221ce8130024c18fd0facb62e9215fc1b2dccd763753ec3521",
    ),
    ("mindeg3d", "lu"): (
        "780210b8825d5b724be29eb4f9360ab8a35c3d334f1b25f8a03822fa94edb3cc",
        "780210b8825d5b724be29eb4f9360ab8a35c3d334f1b25f8a03822fa94edb3cc",
        "780210b8825d5b724be29eb4f9360ab8a35c3d334f1b25f8a03822fa94edb3cc",
        "780210b8825d5b724be29eb4f9360ab8a35c3d334f1b25f8a03822fa94edb3cc",
    ),
    ("mindeg3d", "ic0"): (
        "ac4d64a90b3401eeba0748b14fb233d45c34739edf141646d1a3b73de9893b02",
        "ac4d64a90b3401eeba0748b14fb233d45c34739edf141646d1a3b73de9893b02",
        "ac4d64a90b3401eeba0748b14fb233d45c34739edf141646d1a3b73de9893b02",
        "ac4d64a90b3401eeba0748b14fb233d45c34739edf141646d1a3b73de9893b02",
    ),
    ("mindeg3d", "ilu0"): (
        "06ff8f816cf8cc2eccf25af24a82dd0cb009d6053d2964a375938935b7580141",
        "06ff8f816cf8cc2eccf25af24a82dd0cb009d6053d2964a375938935b7580141",
        "06ff8f816cf8cc2eccf25af24a82dd0cb009d6053d2964a375938935b7580141",
        "06ff8f816cf8cc2eccf25af24a82dd0cb009d6053d2964a375938935b7580141",
    ),
    ("mindeg3d", "triangular-solve/sparse-rhs"): (
        "3bb7015975bcfc1a841daf7dbe8de22af2f9be6d5e693de7f8c7a1bb5a9858df",
        "d8f502e8f6447ce9bed483c1c0d112dd15c4240c557c5c317cfa24928be37291",
        "3bb7015975bcfc1a841daf7dbe8de22af2f9be6d5e693de7f8c7a1bb5a9858df",
        "c46f879450ba7b9aef248d5ce50e2afabfea2e6b046d31e6fe12e95c0f7b6c64",
    ),
}


def _compile_case(sym, pattern, case, options):
    """Compile one ``TABLE_CASES`` entry on one of ``TABLE_PATTERNS``."""
    method, _, sparse = case.partition("/")
    operand = _operand(sym, method, TABLE_PATTERNS[pattern])
    kernel_args = {"rhs_pattern": np.nonzero(sparse_rhs(operand.n, seed=6))[0]} if sparse else {}
    return sym.compile(method, operand, options=options, **kernel_args)


def _table_digest(pattern, case, bundle):
    artifact = _compile_case(Sympiler(cache=ArtifactCache()), pattern, case, SympilerOptions(**bundle))
    digest = hashlib.sha256()
    for name, table in artifact.constants.items():
        assert table.dtype == np.int64 and table.flags.c_contiguous, name
        digest.update(name.encode() + b"\0" + table.tobytes() + b"\0")
    return digest.hexdigest()


@pytest.mark.parametrize("bundle", range(len(_OPTION_BUNDLES)))
@pytest.mark.parametrize("case", TABLE_CASES)
@pytest.mark.parametrize("pattern", sorted(TABLE_PATTERNS))
def test_table_block_is_byte_identical_to_the_parent_commit(pattern, case, bundle):
    assert _table_digest(pattern, case, _OPTION_BUNDLES[bundle]) == _PINNED_TABLE_BLOCKS[pattern, case][bundle]


def test_every_c_method_spec_is_pinned():
    modes = ("none", "wavefront")
    expected = {(pattern, method, mode) for pattern in PATTERNS for method in _C_METHOD_SPECS for mode in modes}
    assert set(_PINNED_C_SOURCES) == expected


@needs_cc
@pytest.mark.parametrize("pattern,method,parallel", sorted(_PINNED_C_SOURCES))
def test_generated_c_is_byte_identical_to_the_parent_commit(pattern, method, parallel):
    sym = Sympiler(cache=ArtifactCache())
    operand = _operand(sym, method, PATTERNS[pattern])
    digest = hashlib.sha256()
    for bundle in _OPTION_BUNDLES:
        artifact = sym.compile(method, operand, options=SympilerOptions(backend="c", parallel=parallel, **bundle))
        assert artifact.module.method == method
        digest.update(artifact.source.encode() + b"\0")
    assert digest.hexdigest() == _PINNED_C_SOURCES[pattern, method, parallel]


# --------------------------------------------------------------------------- #
# The compile record did not move
# --------------------------------------------------------------------------- #
#: The option bundles above, then VS-Block alone and VI-Prune alone.
_RECORD_BUNDLES = (
    *(SympilerOptions(**bundle) for bundle in _OPTION_BUNDLES),
    SympilerOptions.vs_block_only(),
    SympilerOptions.vi_prune_only(),
)


def _loop(artifact):
    """The domain loop the compile planned, ``None`` for the untransformed solve."""
    return artifact.loop


def _record(artifact):
    """What a compile decided, as canonical JSON: the passes, their decisions and the loop they planned."""
    loop = _loop(artifact)
    # The third field was loop distribution, which no loop has any more; it
    # stays so that the records of every other loop hash as they did.
    shape = None if loop is None else [loop.role, loop.factor_kind, False]
    record = {"applied": artifact.applied_transformations, "decisions": artifact.decisions, "loop": shape}
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


#: sha256 over the records of every bundle of ``_RECORD_BUNDLES`` under ``parallel="none"``, then
#: under ``parallel="wavefront"``, per (pattern, case, backend); re-based where VS-Block takes a
#: Cholesky / LDLᵀ when loop distribution stopped being planned.
_PINNED_RECORDS = {
    ("fem", "triangular-solve", "python"): "95822150f97714d061bb04f407eec64cdf5ba93c24867ba10642d546ad989a5b",
    ("fem", "triangular-solve", "c"): "6f90253ae7345249cad1b935ff259d8fc6f15bca6682ee2b1584360f370069e5",
    ("fem", "cholesky", "python"): "e1462e4f52466106ecf365929b60a2ecb643e1036bec95e2220ab706c5e5fa2f",
    ("fem", "cholesky", "c"): "ff3d71dbd284e07ba9150bd2007959f077053c7f905d479bf38edd8f3bf3096e",
    ("fem", "ldlt", "python"): "c06bd5b6177dabe98d9717997d8ec414bcd87e450b211b39294de1eb3acae9e0",
    ("fem", "ldlt", "c"): "87dd7a1a46416e7285b8db976be7698087709db5b6c3bf391f2e88ff82673883",
    ("fem", "lu", "python"): "0ffecdfd4deed60f42ac3617128584dd508bc091ac2781b589e858ce2faaa122",
    ("fem", "lu", "c"): "9a1d6736852f392b5d0502c1ac4d408719990311f7447b151ee0929b89f3cdab",
    ("fem", "ic0", "python"): "0c6c14f21ff7e0c6f4901464af80e1f7cb1ee25f155180a614b0355d274c98c5",
    ("fem", "ic0", "c"): "4e932f5f0f4993c7f7409d9333c683d93393b464ff3feb675af818cc4c2fd064",
    ("fem", "ilu0", "python"): "cd9fff0f833471d8c7652eba6154a7fe76e7af7c04707b5064e0b08a2ff41cb1",
    ("fem", "ilu0", "c"): "aab88ab46d7025893c5470449ee77ad94d07fdc3bd65fbf4981119cc14feb5b6",
    ("fem", "triangular-solve/sparse-rhs", "python"): "d165a2afb6b31b87f9edb6771e845d866259ccb207f70c3ee0b0d6f8670d1ec4",
    ("fem", "triangular-solve/sparse-rhs", "c"): "b11e8991aaadf1136867912fdd59fe231da3b80e99a40f4314723b311b60f72c",
    ("mindeg", "triangular-solve", "python"): "262a014a8f04be14f594b87109ffe8aea29d3476ffd4a7df8b5f72ce517b884d",
    ("mindeg", "triangular-solve", "c"): "f231d606acec9be9578aad660f17b055158218790cfe3fb84a7e91d7ff3e8b68",
    ("mindeg", "cholesky", "python"): "b641fbeeb44fa9488c53ee0496e547ae42ea88d11a649ccbf7d996625ae78731",
    ("mindeg", "cholesky", "c"): "e53eff5081e438977a2d2a508c64a210dfd6ab984f9c4ecdf67956981e3bbb4c",
    ("mindeg", "ldlt", "python"): "ef6c55ef30752c63487ad5b25d25daae53338f87f8243b58eeb8c60b83e1f96d",
    ("mindeg", "ldlt", "c"): "6679ef4e9467a04e847fbd63b12c2b87a4ebf80a6eabf89c30785c2dd1d3ec12",
    ("mindeg", "lu", "python"): "3b4626fc7379894c93ff1d99364e2d2837c3fb84df9769e74959325e6545bc55",
    ("mindeg", "lu", "c"): "2060adfd86d59200e622691c5819e928fdf9d0bebf58bc10fac1769e0987b6c3",
    ("mindeg", "ic0", "python"): "8700a5f6fc0d92339cf8f65349242b34372006bb0df69f479df2359ff02f72c0",
    ("mindeg", "ic0", "c"): "55fa94e8d2e1e65fa16d3f90c4ce83f029ebd39227e4af2780dfb592cf4f9cb3",
    ("mindeg", "ilu0", "python"): "aee3424ddf893ccaf820e74f1621449034fa27e3f7b6f093d4d019d3dc403731",
    ("mindeg", "ilu0", "c"): "f7c59b62ade105fecb7195ed3f3eaa71bd8f04922dd1f2a84b52712b91549023",
    ("mindeg", "triangular-solve/sparse-rhs", "python"): "d68dcbc81a5c416b42140fff519c71ce2a946e3662a6e533741216a53760e0d0",
    ("mindeg", "triangular-solve/sparse-rhs", "c"): "1b64639b0c4165e280dfa3439be08c510ae2e1d6e79f532dc6b3e7d55a669159",
    ("mindeg3d", "triangular-solve", "python"): "e00adafe612bbad99f88c84ba38b72aef0511e285abc54e2293bfe3366c4d464",
    ("mindeg3d", "triangular-solve", "c"): "2fd79bd322768fb4fa17d96a2bea58e9bcd1c6c5597bffe1e2d8d020c6bc11a9",
    ("mindeg3d", "cholesky", "python"): "c25da98307cfcf05f7c547fed2917b4aca4c039538348007560b837b53e29a41",
    ("mindeg3d", "cholesky", "c"): "6cca81db6fdb1960beac946fadc4eb0ad090c35813e5a0988f357092dfa626d0",
    ("mindeg3d", "ldlt", "python"): "2543cfcab6065a32711704ecd794b0cd91a22f63318107eaecd9acd5ca12d13e",
    ("mindeg3d", "ldlt", "c"): "512cd3281aabf2f8fc4a8d734aab833265fe800202b287aa9efb03c8b6f88445",
    ("mindeg3d", "lu", "python"): "9ea3c05e7f8fb6c127cb5e855c0fb83335753db73f762de3c2443ddee060bbb9",
    ("mindeg3d", "lu", "c"): "6197b0c916551aa5cc02680616cbde17f1b9b4ed2c3b3753ce5d1be8b1ec45a8",
    ("mindeg3d", "ic0", "python"): "336917a55796157a4a8c9f69b927ad323e4358ab4b6e82c1740bf20a119816f7",
    ("mindeg3d", "ic0", "c"): "99abf8b44d6317751ea3e70367dde89032b9cefa59a827c3aea81497caf1e4fe",
    ("mindeg3d", "ilu0", "python"): "3fa5c572a3b9d5d63c21f960ce5f4e407e0cfeef8ff5f344c1b9a6137c69f334",
    ("mindeg3d", "ilu0", "c"): "9df29d656c631ba427e1c30f64079e08e13c3e84f87cbcd591099584a1449982",
    ("mindeg3d", "triangular-solve/sparse-rhs", "python"): "3bde3849bebae75a71c15a1b0e49b982d669450d501e8ae1cb07f9894183895a",
    ("mindeg3d", "triangular-solve/sparse-rhs", "c"): "c57fac89521bd8f329487f5c6247d863b9adab7dea191e37b83ad8c251362216",
}


@pytest.mark.parametrize("backend", ["python", pytest.param("c", marks=needs_cc)])
@pytest.mark.parametrize("case", TABLE_CASES)
@pytest.mark.parametrize("pattern", sorted(TABLE_PATTERNS))
def test_compile_record_is_identical_to_the_parent_commit(pattern, case, backend):
    sym = Sympiler(cache=ArtifactCache())
    digest = hashlib.sha256()
    for parallel in ("none", "wavefront"):
        for bundle in _RECORD_BUNDLES:
            options = bundle.with_updates(backend=backend, parallel=parallel)
            digest.update(_record(_compile_case(sym, pattern, case, options)).encode() + b"\0")
    assert digest.hexdigest() == _PINNED_RECORDS[pattern, case, backend]


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


@needs_cc
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
        assert ("vs-block" in python.applied_transformations) == vs_block
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


def _exact_factor_matrix():
    """``(L, c)``: a unit lower ``L`` with entries ±1 on the factor pattern of a minimum-degree 3-D
    grid, and a column ``c`` in the middle of its widest supernode, which descendants update.

    ``A = L diag(D) Lᵀ`` with ``D = 1`` before ``c`` has small integers for every intermediate
    of its factorization, so every operation order computes the pivots up to ``c`` exactly.
    """
    grid = laplacian_3d(4)
    inspection = CholeskyInspector().inspect(minimum_degree_ordering(grid).symmetric_permute(grid))
    Lp, Li, super_ptr = inspection.l_indptr, inspection.l_indices, inspection.supernodes.super_ptr
    L = np.eye(inspection.n)
    rng = np.random.default_rng(1)
    for j in range(inspection.n):
        L[Li[Lp[j] + 1 : Lp[j + 1]], j] = rng.choice([-1.0, 1.0], size=Lp[j + 1] - Lp[j] - 1)
    s = int(np.argmax(np.diff(super_ptr)))
    return L, int(super_ptr[s] + super_ptr[s + 1]) // 2


@needs_cc
@pytest.mark.parametrize("kernel", ["cholesky", "ldlt"])
def test_a_breakdown_inside_a_wide_supernode_names_the_simplicial_column(kernel):
    """A zero, a negative and a NaN pivot in the middle of a wide supernode: both backends of the
    supernode loop fail like the simplicial loop, at the same global column."""
    L, c = _exact_factor_matrix()
    pattern = CSCMatrix.from_dense(np.abs(L) @ np.abs(L).T)  # one pattern for every case: no cancellation
    cases = {}
    for name, pivot in (("zero", 0.0), ("negative", -1.0), ("nan", 1.0)):
        D = np.ones(L.shape[0])
        D[c] = pivot
        dense = L @ np.diag(D) @ L.T
        if name == "nan":
            dense[c, c] = np.nan
        cases[name] = pattern.with_values(dense[pattern.indices, pattern.col_indices()])
    sym = Sympiler(cache=ArtifactCache())
    blocked, reference, simplicial = (
        sym.compile(kernel, cases["zero"], options=SympilerOptions(backend=backend, enable_vs_block=vs_block))
        for backend, vs_block in (("c", True), ("python", True), ("c", False))
    )
    assert blocked.loop.role == reference.loop.role == "supernodal-cholesky"
    assert simplicial.loop.role == "simplicial-cholesky"
    # Not vacuous: c is neither the first nor the last column of its supernode, which descendants update.
    T = blocked.constants
    s = int(np.searchsorted(T["_C_sup_start"], c, side="right")) - 1
    assert T["_C_sup_start"][s] < c < T["_C_sup_end"][s] - 1 and T["_C_desc_ptr"][s + 1] > T["_C_desc_ptr"][s]
    for name, A in cases.items():
        outcomes = [_outcome(artifact, A) for artifact in (blocked, reference, simplicial)]
        if kernel == "cholesky" or name == "zero":
            failure = ("ValueError", _C_METHOD_SPECS[kernel].failure.format(column=c))
            assert outcomes == [failure] * 3, name
            continue
        # LDLᵀ takes a negative pivot, and its pivot test lets a NaN through.
        assert [kind for kind, _ in outcomes] == ["ok"] * 3, name
        np.testing.assert_array_equal(outcomes[0][1], outcomes[1][1])  # NaN for NaN
        if name == "negative":  # exact arithmetic: every loop computes the same factor
            np.testing.assert_array_equal(outcomes[0][1], outcomes[2][1])
