"""Golden `cliquealg run` reports: every algorithm at n in {8, 16, 64}.

Each case pins the sha256 of the full report that `cliquealg run` writes for
a generated instance at seed 1: the output text and its digest, the verdict,
and the complete cost ledger (`ledger.to_text()`), so a change meant to be
round-neutral must leave every phase's rounds and messages, and every output
byte, exactly as they were.  A change that alters ledgers on purpose updates
these digests and explains the ledger diff.
"""

import contextlib
import hashlib
import io
import warnings

import pytest

from cliquealg import cli

GOLDEN = {
    "trivial": {
        ("mm", 8): "5dbed297cb06c22e8f75e67540794e2d7a7b9575b9ecda388d3aea8fa3366070",
        ("distprod", 8): "4a3f0d6865513de0dab3fa77b9f52cb88ac4528cabf24edcdf43554ec09af8d8",
        ("det", 8): "e41150653b0411e7fd32b7c17b3950645af5d5ab9939086cf8a0f6e60af56d44",
        ("inverse", 8): "9570a6ba5e4e2c618b73f4a15375f4b888373a268947dc4a16f6eb17c0199972",
        ("minpol", 8): "b38cd75bf61a3f3e7123700202c358b50d519e5052367a64dbf80487e30d1830",
        ("solve", 8): "d6738e3c5a6b9aad1a392008ef406fe076b33cf8605f54c67ce1efe27d0407e5",
        ("rank", 8): "17f86bef80d2d25312927a7f3533cad89b8c26d4e301e880727d8b3f6d280daa",
        ("apsp", 8): "399efcba7debce58af1dd8d35f3608b2f2858568566129d2844ff42a7b5e59b4",
        ("apsp-zwick", 8): "a77365e2b1a5ae5586693929d9e20a8244fb986884d02f253b66d2da53880ae2",
        ("diameter", 8): "261842b4f4c3c3af2deb8ce4e9fc89ce36142700290efe321b240ad9934a5bb6",
        ("matching-size", 8): "dc9096a78fe0c64228049c9b9a7a953469c8ea96dcc597c3b23238737ecd5958",
        ("allowed-edges", 8): "d4b07dd8062118fc15de8f4197d6fceef49aa0f148b6296af5f98ff16ecc7a12",
        ("gallai-edmonds", 8): "67a1e9ff750a0874829f737ebec84539cadd04ba4cd8d1cd375e9f2f3d5c2641",
        ("mm", 16): "fd146d0b7010b4f939d44f78cc6fcf9448dff541b7add9e7d6f3dd944b59ff9b",
        ("distprod", 16): "1a1ed8a9ebef0aa6276116cdf6e0a321cd1ded1037ade439820d083f6481abc1",
        ("det", 16): "f0ee105c740ae41bbcedec807ef286eb3942cc7e9d35e2a30e1487eef2299e03",
        ("inverse", 16): "5bf76710fa7d7cd0dd5d3d8166162fb44f38388dc88d32680e74ebcdf427ca02",
        ("minpol", 16): "bd17b8adee81ad676c1ef3009c2d635d6eb5f3f64b9f0a89060f40e377ad5ad2",
        ("solve", 16): "933c9bc653b14b07ec82673cb62eb81537b12b0d740459a6bfc73c70bd2f0db6",
        ("rank", 16): "eb61b92d5682956d35c8ef57989f05d067467e704ca9661e22054effad2a4d10",
        ("apsp", 16): "228419b0d365e19a8c4983195a7b61c95187331ff3ea634953f2654e60ff5a1e",
        ("apsp-zwick", 16): "8994c8f64d19b769c04c5456fd0221850a5e0c6a289bb6e0217266e61220907b",
        ("diameter", 16): "bef48efcbd14349b668e11df1db4c2298cabac423aeb0c21419936c40acd34c8",
        ("matching-size", 16): "fdf3c1977ba4177c90cf3efe2fd44933cbbfd68416b14a9535ff1d0dd7668b0d",
        ("allowed-edges", 16): "081df3b0b78c8a45f3bd0da92b430c4517153bf3ace54e8ac051ac61d6dc718c",
        ("gallai-edmonds", 16): "08428d2ef1790886c73e8fdee961fd99227b239d2e72106883c9aaa33c7c0c13",
        ("mm", 64): "6f92efa10d459981b42601d1b3648fefe420fa4aadca3cc9ff9cd3c67dde1a76",
        ("distprod", 64): "6d51dd7ef37a46148deec487d80043a222660ddfa04c8f070f6788e5dbe400f3",
        ("det", 64): "b23969c0dc0fb5385295dc53c8c95fa54f6ca07bcd8fb5b1a92e0b84ebe3a7f2",
        ("inverse", 64): "cd7aff9ba19aa3f2ced9848cb120912cc62e22e529410f888b1e98928c3d22df",
        ("minpol", 64): "fd428cce83eedf81fe772376a308576fee52a052fb76b1fd29550486bfc60e2e",
        ("solve", 64): "363bd5f05cd213da958a610876226f9d01a8dbd3485d3163175b997be35bbd9d",
        ("rank", 64): "d9dbd9d311c02c51e2248f24840f9e6365f47902ebcccdc74afc034035faf353",
        ("apsp", 64): "7769079ef2d5448b205634ff5e9675918d999dd3eccb6d376e97fb08faa7e4a0",
        ("apsp-zwick", 64): "24a0fa43b2e34b189e85d052099785ca3264e14c7ed72d66d99831307898f9e1",
        ("diameter", 64): "23f90ccc4ba92ef9cc69debb3624a4084e64c092d2a30b5ecf7098fe6866610e",
        ("matching-size", 64): "d9f36b285c16f0d3603ba1c3867c8def6a191fff6f0f0180899e7ccf5920a8d0",
        ("allowed-edges", 64): "f6dbc0aef95bea56b62176f6c465bc1a2302be2e5f3c5eb1d3a8cf2d2f2213c2",
        ("gallai-edmonds", 64): "54072b8e28c0a66a65dca3d33f837de6cd1421b2d81e324e31e3e5dacae250a4",
    },
    "strassen": {
        ("mm", 8): "5dbed297cb06c22e8f75e67540794e2d7a7b9575b9ecda388d3aea8fa3366070",
        ("det", 8): "e41150653b0411e7fd32b7c17b3950645af5d5ab9939086cf8a0f6e60af56d44",
        ("inverse", 8): "9570a6ba5e4e2c618b73f4a15375f4b888373a268947dc4a16f6eb17c0199972",
        ("minpol", 8): "b38cd75bf61a3f3e7123700202c358b50d519e5052367a64dbf80487e30d1830",
        ("mm", 16): "c34620eea56d8cae29b762f9cfa9d712abcf667eb52b9b0549a05e152c73fa28",
        ("det", 16): "14601a020bff295ae98630a21d88f7683cf8c2ee5b97e68bee6f6279b7271071",
        ("inverse", 16): "989448b1bfce224acde795c8545218810f7485445f6b86a7e3c884a4529cf920",
        ("minpol", 16): "a7f27e349cb5c0dd59f69ac270fdb3fd63e1c34256828a09eaa029066c866b9a",
        ("mm", 64): "4fef6c69d85f83fea15cc120b2f9448e928967ae3e6f88ef6175fead93ac3600",
        ("det", 64): "e207787d5402d59e09455c345b11d0483930e1b6e7ee827056c587423440ee52",
        ("inverse", 64): "1a2c58a09d72c12d1977ff98afbd62232a4ad979a5a8a0d089b0e6f4f5c37ab8",
        ("minpol", 64): "c84c7df694a7a0fcda352bfd0257956e2be89125f9d7887d3c1d82e983c56e78",
    },
}

CASES = [(kernel, alg, n) for kernel, table in GOLDEN.items() for alg, n in table]


def test_every_algorithm_is_pinned():
    assert {alg for alg, _ in GOLDEN["trivial"]} == set(cli.ALGORITHMS)
    assert {n for _, n in GOLDEN["trivial"]} == {8, 16, 64}


@pytest.mark.parametrize("kernel,algorithm,n", CASES)
def test_run_report_digest(kernel, algorithm, n, tmp_path):
    path = tmp_path / "report"
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("ignore")
        cli.main(["run", algorithm, "--gen", f"default:n={n}", "--seed", "1",
                  "--kernel", kernel, "--out", str(path)])
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN[kernel][(algorithm, n)]
