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
        ("minpol", 8): "13ce17f6bb2b24246ce88d4162999ce7f7e6c66386f3303a4c7e7dd5dedd86fd",
        ("solve", 8): "0084bf2c6042410acce5a487bc8b0c61b676bcac07107d01b21882f61538c4f8",
        ("rank", 8): "a9d008c707862db2cf7c0216d02e153c496cbdb562cf8e435971476906f6697d",
        ("apsp", 8): "399efcba7debce58af1dd8d35f3608b2f2858568566129d2844ff42a7b5e59b4",
        ("apsp-zwick", 8): "a77365e2b1a5ae5586693929d9e20a8244fb986884d02f253b66d2da53880ae2",
        ("diameter", 8): "261842b4f4c3c3af2deb8ce4e9fc89ce36142700290efe321b240ad9934a5bb6",
        ("matching-size", 8): "5e768af7e9cf804395e6440f7ea748ce3d8c973b89e95d21834a79b3ba721b7c",
        ("allowed-edges", 8): "8452e34c63d2b35eba163eef816a1757930706a6e02ee69fea5fc2e2d92ca8d8",
        ("gallai-edmonds", 8): "a675f3d8f3c9e2f7230a20d1b4b6c2b56e873338fd4ff539a571f9e50014fc17",
        ("mm", 16): "fd146d0b7010b4f939d44f78cc6fcf9448dff541b7add9e7d6f3dd944b59ff9b",
        ("distprod", 16): "1a1ed8a9ebef0aa6276116cdf6e0a321cd1ded1037ade439820d083f6481abc1",
        ("det", 16): "f0ee105c740ae41bbcedec807ef286eb3942cc7e9d35e2a30e1487eef2299e03",
        ("inverse", 16): "5bf76710fa7d7cd0dd5d3d8166162fb44f38388dc88d32680e74ebcdf427ca02",
        ("minpol", 16): "185d0ffee0d10711fbac537b24563b932ef653b5c7a4f6d3e98b28492c6df74e",
        ("solve", 16): "6d1d0d31a3f4bf518b2c34c3e631c15b2e94fcc5de8b2632ebc4c78b27fd3b2c",
        ("rank", 16): "bcdbc01dcb52717676e89607f248fc7391158175e60076ed59565e6191ab0859",
        ("apsp", 16): "228419b0d365e19a8c4983195a7b61c95187331ff3ea634953f2654e60ff5a1e",
        ("apsp-zwick", 16): "8994c8f64d19b769c04c5456fd0221850a5e0c6a289bb6e0217266e61220907b",
        ("diameter", 16): "bef48efcbd14349b668e11df1db4c2298cabac423aeb0c21419936c40acd34c8",
        ("matching-size", 16): "7ae8dfa941182f5a5cdfc3f8f1e4dfbb973e01bc06b9f8479ef6ffc663608a87",
        ("allowed-edges", 16): "541721700d5d6d3b95f179f86e0c901af8bea018a8ecf1e5e0c11498e75bf4e0",
        ("gallai-edmonds", 16): "50f2eeb746055a43bb66300f9c52819367a30f3ecedca6eb59d3ab0810c0ed8c",
        ("mm", 64): "6f92efa10d459981b42601d1b3648fefe420fa4aadca3cc9ff9cd3c67dde1a76",
        ("distprod", 64): "6d51dd7ef37a46148deec487d80043a222660ddfa04c8f070f6788e5dbe400f3",
        ("det", 64): "b23969c0dc0fb5385295dc53c8c95fa54f6ca07bcd8fb5b1a92e0b84ebe3a7f2",
        ("inverse", 64): "cd7aff9ba19aa3f2ced9848cb120912cc62e22e529410f888b1e98928c3d22df",
        ("minpol", 64): "1a7954fae74bdb1b612ddeef9bfef4a1bd3d135cd594bd450dafd1a504eadd8a",
        ("solve", 64): "334e713daa7b26b1497e6a25543baa89ba76a68dbeddcf5c4b987d8aa68110c3",
        ("rank", 64): "7d72969d4abe2ab67c8012302ffa8e6a3ea07d5f9a469e6a64f7b40fd45ef300",
        ("apsp", 64): "7769079ef2d5448b205634ff5e9675918d999dd3eccb6d376e97fb08faa7e4a0",
        ("apsp-zwick", 64): "24a0fa43b2e34b189e85d052099785ca3264e14c7ed72d66d99831307898f9e1",
        ("diameter", 64): "23f90ccc4ba92ef9cc69debb3624a4084e64c092d2a30b5ecf7098fe6866610e",
        ("matching-size", 64): "ccc3694ccb191a4d25f990da6f20eb1f892052c4acde979d6881cb24061564f7",
        ("allowed-edges", 64): "a5766f5f0ff16a2fdb33bd2b86cd39ae9178eb8402fba7c2e85f34eb59a6960e",
        ("gallai-edmonds", 64): "6d198d719d34de461ba9dcd4ae8475f2532affa6d6a5b15cc0792bc93c84e68f",
    },
    "strassen": {
        ("mm", 8): "5dbed297cb06c22e8f75e67540794e2d7a7b9575b9ecda388d3aea8fa3366070",
        ("det", 8): "e41150653b0411e7fd32b7c17b3950645af5d5ab9939086cf8a0f6e60af56d44",
        ("inverse", 8): "9570a6ba5e4e2c618b73f4a15375f4b888373a268947dc4a16f6eb17c0199972",
        ("minpol", 8): "13ce17f6bb2b24246ce88d4162999ce7f7e6c66386f3303a4c7e7dd5dedd86fd",
        ("mm", 16): "c34620eea56d8cae29b762f9cfa9d712abcf667eb52b9b0549a05e152c73fa28",
        ("det", 16): "14601a020bff295ae98630a21d88f7683cf8c2ee5b97e68bee6f6279b7271071",
        ("inverse", 16): "989448b1bfce224acde795c8545218810f7485445f6b86a7e3c884a4529cf920",
        ("minpol", 16): "7ac13c95f08ed2df5df649caece42db445044f1b8fcbef4de9b0678a494c98d3",
        ("mm", 64): "4fef6c69d85f83fea15cc120b2f9448e928967ae3e6f88ef6175fead93ac3600",
        ("det", 64): "e207787d5402d59e09455c345b11d0483930e1b6e7ee827056c587423440ee52",
        ("inverse", 64): "1a2c58a09d72c12d1977ff98afbd62232a4ad979a5a8a0d089b0e6f4f5c37ab8",
        ("minpol", 64): "cdc5f33c245e022c7892dd16cf93626e686bf6b527ee025a6f2443eddc160ac2",
    },
}

CASES = [(kernel, alg, n) for kernel, table in GOLDEN.items() for alg, n in table]


def test_every_algorithm_is_pinned():
    assert {alg for alg, _ in GOLDEN["trivial"]} == set(cli.ALGORITHMS)
    assert {n for _, n in GOLDEN["trivial"]} == {8, 16, 64}


def report_digest(kernel, algorithm, n, path):
    """sha256 of the report `cliquealg run` writes to path for one case."""
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("ignore")
        cli.main(["run", algorithm, "--gen", f"default:n={n}", "--seed", "1",
                  "--kernel", kernel, "--out", str(path)])
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("kernel,algorithm,n", CASES)
def test_run_report_digest(kernel, algorithm, n, tmp_path):
    digest = report_digest(kernel, algorithm, n, tmp_path / "report")
    assert digest == GOLDEN[kernel][(algorithm, n)]


if __name__ == "__main__":
    # `PYTHONPATH=src python tests/test_golden.py` prints `kernel algorithm n
    # digest` for every case from the tree on the path; diffing the output of
    # two trees names exactly the cases a change moves.
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for kernel, algorithm, n in CASES:
            print(kernel, algorithm, n, report_digest(kernel, algorithm, n,
                                                      pathlib.Path(tmp) / "report"))
