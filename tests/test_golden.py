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
        ("mm", 8): "acda66df8a98857d75bbd81202ce15a9a36b5070ce8619ea6b7390347eed2f73",
        ("distprod", 8): "56992b8cab714dded5d81427e423113369a3ccc267d8b162ba25fd5e92eede4d",
        ("det", 8): "dad900a10a3b9a6eb9cd2381f9be5d5ea5f9651a9f770a7582f3802ece170b9e",
        ("inverse", 8): "4fd17c56e033741d0ed540428d71614222b40c973d55115bc378bcdab48e71bb",
        ("minpol", 8): "eb2d284b89ea75dd7cc3e97e908ed58675476978b9f7d0e1ba5854b3ebc974a4",
        ("solve", 8): "c1e8c5320020c1bc0f58a182cd8bbdb4358d691cf557d2c93da47cfc4552e46e",
        ("rank", 8): "26a709fa2723f2c5ed7a0ee34c0e1b30e16ec75914eb99f9d60855b0ac70f087",
        ("apsp", 8): "25098f061925b006e41a7e96d175a82aee895f792ebf0c24168a9a6f6941c1b3",
        ("apsp-zwick", 8): "d061f0e94ce997777870c2206ad5a62aca0e6e20107c41101fd89b51821ab175",
        ("diameter", 8): "fa8f5492dcf0cd3cf51184b8bf5fab42b52153139b9c5e82d5704157de3fc602",
        ("matching-size", 8): "0df101c2bbfa5a65badc93a31a7e4fb7a231fdf472cc9b55da78a94dcb52c12a",
        ("allowed-edges", 8): "129efeb0d2c6654f5c61dabe7b62235cf751999cc55651848f46e1015059fdac",
        ("gallai-edmonds", 8): "e843580eafb6a036b6b16fcc9a442e44afda616966c3205df9cf6a304cd51d5e",
        ("mm", 16): "a98c034f66bd7ce9435752cdfeadb21098c18a6dd8308d3ab0c22ee2530b47c0",
        ("distprod", 16): "10109b5a07d9996099e2a2e574f166fbc472dd0cab3469202726953bdcd2e2dd",
        ("det", 16): "76bc814e6d38cf66984724b99d3dc1b2da628b2daab0c2562ffa39687eacc5df",
        ("inverse", 16): "12aafa10738a740ba310eea2c926143016a97348a66bba7716f64c87776013e2",
        ("minpol", 16): "8587419ac262e250fe7b4d65fc878d361a08dfd7aa4763dabb1977c6422945a6",
        ("solve", 16): "3fd6756be20463b5c2c0a7090d25c021fcf642c9e37fb44e2643556c41d7473a",
        ("rank", 16): "aa5c1cb20cd238ead31981b13c307a25f64f375090443a84ca48f66c8295254b",
        ("apsp", 16): "b99b0e44c16cadecf834c2a0482136355e6cf00e9f0010b31ee4a9454f1b9c9b",
        ("apsp-zwick", 16): "ba104d7bfb24c32b79f2bd6529c0f5f427398a654023b7af5614e446bb7b4562",
        ("diameter", 16): "e6d25a567f7f4599208c4ba0cd714a258c76f54bb76145952a863fe4ac96263f",
        ("matching-size", 16): "555d34bb98ce97b522c6430af2460de0d6905195dbd8b205fe75011fb108aeda",
        ("allowed-edges", 16): "e473fda133ea18adf3f87b7b3c134c4975f745480c2e8721f88f1cd30a7c3565",
        ("gallai-edmonds", 16): "f70d2fdd846dab139d8a0ceccb683cb6f4f5a3272dc4cf011a26295895bd5061",
        ("mm", 64): "6f92efa10d459981b42601d1b3648fefe420fa4aadca3cc9ff9cd3c67dde1a76",
        ("distprod", 64): "6d51dd7ef37a46148deec487d80043a222660ddfa04c8f070f6788e5dbe400f3",
        ("det", 64): "254063b3ef97019536039fbf2d8d1fbd15e6ba453c8098ec1096b7e698e6d811",
        ("inverse", 64): "0cc8eda3eb05c0d5ee8601b1967d8030046c470ccc13260212008e073ff0fc42",
        ("minpol", 64): "fd428cce83eedf81fe772376a308576fee52a052fb76b1fd29550486bfc60e2e",
        ("solve", 64): "363bd5f05cd213da958a610876226f9d01a8dbd3485d3163175b997be35bbd9d",
        ("rank", 64): "d9dbd9d311c02c51e2248f24840f9e6365f47902ebcccdc74afc034035faf353",
        ("apsp", 64): "7769079ef2d5448b205634ff5e9675918d999dd3eccb6d376e97fb08faa7e4a0",
        ("apsp-zwick", 64): "be5d6ad4dac0522e73a5fcd020fc875a948df8a39de49e96cf1e70cae3ecfc7c",
        ("diameter", 64): "23f90ccc4ba92ef9cc69debb3624a4084e64c092d2a30b5ecf7098fe6866610e",
        ("matching-size", 64): "d9f36b285c16f0d3603ba1c3867c8def6a191fff6f0f0180899e7ccf5920a8d0",
        ("allowed-edges", 64): "8b50def4344aae814a07acf1aabcff74dc9c8350b48a21bf961006359bd30212",
        ("gallai-edmonds", 64): "54072b8e28c0a66a65dca3d33f837de6cd1421b2d81e324e31e3e5dacae250a4",
    },
    "strassen": {
        ("mm", 8): "d99de24124b04430955a000fef05acd4914bf422acb8b6c86dd0c270b0439615",
        ("det", 8): "3f0223e832079417ebe211487491d8cc7a39147cbd934f55636b5f1215e78ed2",
        ("inverse", 8): "b8c6149c30c3ac39a63cfc9d11dfc6fa7ea0386083be0e5d7060ebb15746ab65",
        ("minpol", 8): "c50ce8553d58df11f3e7a0a9a90e8ad99c2c7ae9b7e00fe6bf82393964e580d9",
        ("mm", 16): "c34620eea56d8cae29b762f9cfa9d712abcf667eb52b9b0549a05e152c73fa28",
        ("det", 16): "020c4e15a1d9075ffbcbfb19a575db21e083564290f542ddfef21ed57067d3fa",
        ("inverse", 16): "4d392c5f4297e54a112a1a46c0a1f1e6ab8dc55411665a66b866fdd8182c7d35",
        ("minpol", 16): "a7f27e349cb5c0dd59f69ac270fdb3fd63e1c34256828a09eaa029066c866b9a",
        ("mm", 64): "4fef6c69d85f83fea15cc120b2f9448e928967ae3e6f88ef6175fead93ac3600",
        ("det", 64): "d33e5523a85697f0373171f676cffe4deb4a09c7bc6ba9fe7c413674686c7a51",
        ("inverse", 64): "81d3e89ea5d3462c4d81832091358d38141d293b7849d579cfb0d0604bbd56a1",
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
