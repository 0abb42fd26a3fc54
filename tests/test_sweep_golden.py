"""Byte-level golden digests of sweep reports and scan CSVs.

Each digest is the sha256 of a sweep's ``canonical_json()`` (or of a
``ucx scan`` CSV), recorded from a known-good build.  Any change to which
instances a sweep draws, which it counts as applicable, or what it writes
into violations, summaries or CSV rows shows up here.  To print the digests
of the current build, run ``python tests/test_sweep_golden.py``.
"""

import hashlib

import pytest

from ucx import cli
from ucx.verify import PROPERTY_NAMES, SweepPlan, run_sweep

RANDOM_N, RANDOM_SEED, RANDOM_SAMPLES = 6, 77, 300
SCAN_TARGETS = ("conjecture2", "theorem2-deficiency")


def _cases():
    for prop in PROPERTY_NAMES:
        for n in range(2 if prop == "ks-zero" else 1, 5):
            yield f"{prop}/exhaustive/{n}"
        yield f"{prop}/random/{RANDOM_N}"
    for target in SCAN_TARGETS:
        yield f"scan/{target}/{RANDOM_N}"


def _digest(case: str, tmp_dir) -> str:
    name, mode, n = case.split("/")
    if name == "scan":
        out = tmp_dir / f"{mode}.csv"
        argv = ["scan", mode, "--n", n, "--samples", str(RANDOM_SAMPLES),
                "--seed", str(RANDOM_SEED), "--csv", str(out)]
        cli.main(argv)
        return hashlib.sha256(out.read_bytes()).hexdigest()
    if mode == "exhaustive":
        plan = SweepPlan(name, int(n), "exhaustive")
    else:
        plan = SweepPlan(name, int(n), "random", samples=RANDOM_SAMPLES, seed=RANDOM_SEED)
    return hashlib.sha256(run_sweep(plan).canonical_json().encode()).hexdigest()


GOLDEN = {
    "duality/exhaustive/1": "8b221fc5b197b163ecd1a4645c1a73ab1c7cc0d0b01573a79a3c4535c9212f22",
    "duality/exhaustive/2": "87e6ca9b8a4a461c1d357d8ea3930d7e68b9952b2c77f46d4a52f0ec704145e3",
    "duality/exhaustive/3": "c431e15492d4bca0e0a23c74c58d5a06398d5e48b911aae4172b8b7a7600bb51",
    "duality/exhaustive/4": "2e0aacaafa93c7c3a0e194bbac14562d748d81dc206fcfc265a69558cfe9425c",
    "duality/random/6": "1760d6a9c544625a24391e0d01107d138c3e88dfba3ba59d2a2067331ca612a1",
    "shadow-lemma/exhaustive/1": "12c6a5d52d37656fd87c3fde2e95be550499037b9fd107b63fb8267f940ca6d8",
    "shadow-lemma/exhaustive/2": "cbbc3ebb2e35f290e7fc05c9d4fb276112e171bee4c92ede34184a43b176181d",
    "shadow-lemma/exhaustive/3": "c6c5ef37285f8bc2f370a8675b89a56679fbd7943864f31bdd1f5f05734a54ac",
    "shadow-lemma/exhaustive/4": "b40e36ccec4da211d4c51861ba2c05562adba9668998ae6e34e3f6c5655c4229",
    "shadow-lemma/random/6": "bf6681c4cb461fee46e7c2b35cd7346d8bb1c960329be27319c3995b2afe60e9",
    "parseval/exhaustive/1": "f36608886f73d92d2b62ad5245d68ac1a3fe4da0afbbe8464cc0c9d9825583b4",
    "parseval/exhaustive/2": "c691771f2ee05b73cb091ec02022c43d720157e8e5713c84b0b09b1a9bde311a",
    "parseval/exhaustive/3": "a59325ee6763f9a68993934e73fc192c84fb979f325611674a139ae90854922a",
    "parseval/exhaustive/4": "052e981591cd48882f42c2a75b0733b78d345d698cfb98e50936cfea17ffc0a8",
    "parseval/random/6": "d59375da767e2f19dfa325ae116287370bcbeaa840989f827bc28563094f65e1",
    "influence-identity/exhaustive/1": "f196eea8d592870eee1d97e00c1da9797f6278302f34f2de26a91562118839e0",
    "influence-identity/exhaustive/2": "7f77d274229dec8a370201b9acd08eed654017f6300d8b23cee33f8dc10ee4d2",
    "influence-identity/exhaustive/3": "9393b27d6a20795d170947899f354854b4ee72e5644d10fdda98c4cd335ec7a5",
    "influence-identity/exhaustive/4": "d1967923fcb6f7d5a01ffedd5522c28c2052faf8fa812e35141f5b5068017f0f",
    "influence-identity/random/6": "7ed684e57fc01491c5eae609b7041019aa359493bb555e287dc4c0d6631bfffc",
    "corollary-lb/exhaustive/1": "00cfd1c5e2f9eb6f136f48b31c741bd1744fad32f91124d146d02557b9685ab5",
    "corollary-lb/exhaustive/2": "65df48544ef1dac402ddc644747936331d532b72f840afdecd52c56b4e7585df",
    "corollary-lb/exhaustive/3": "ad2296cf84c0c1e3f51318e2ca9ebe4da4146411cf7632b45932ad12de5278f5",
    "corollary-lb/exhaustive/4": "0482eb5dccd2282f58b8b0755afa9fd39d20e9786f22b36a228c5b7e36e83a93",
    "corollary-lb/random/6": "6aab8786784280c5500433453ac7478d74e76c2cefd5eb9c79cd35f204b91dcd",
    "theorem2/exhaustive/1": "62eb437cc009986482b5e71d112fbece8be4b30ab8868d6d0d0efdac43cc49e1",
    "theorem2/exhaustive/2": "4ad38502b77b264c3535aacbd9e93bd68f09f39d43e45bd421d1217d8679691e",
    "theorem2/exhaustive/3": "4cc1f05ff9e78beb99133430d832c686be2e49a85a50ef9499c392bb06d07b37",
    "theorem2/exhaustive/4": "2a130303564ede064d27e16291df963bf579a4e5aaa8aa9080f4326075d1cf9c",
    "theorem2/random/6": "8af352b788967db111e791557c13274bc8d7ef46341c97af3af5f40eb7ef0792",
    "frankl/exhaustive/1": "b14a0530634a838fb01bd71b2b065da958d4cb76f0f2d5bd8aa8a180389a35f9",
    "frankl/exhaustive/2": "c10db26ac25697e85187f3c7ef554c279af21b53a9abf0074d319d2ff325970a",
    "frankl/exhaustive/3": "572133124e9a6010732f66f2540ef5119e1f697af94b5ccf78087531efa30bb3",
    "frankl/exhaustive/4": "47d95409290b4d762850ceb785607657983f707d05256dd478f9cd15369f9257",
    "frankl/random/6": "52ace300c104902e472babf3c640aeab163b75557af3ccd1fcaf8a5755eda6ba",
    "conjecture2/exhaustive/1": "5c1b917ad5b765f218a71a4996cd4a9e745e622b12344fc6a7e83920b19165ce",
    "conjecture2/exhaustive/2": "d5d622fefa9b8c6cd0762c63cebb62ee7bc9a50a2c71f4b825fbaad2d4cccbe1",
    "conjecture2/exhaustive/3": "3d919c0f9869df65e63cbe4d1546e88faa1159705d52cc0fba5efc5cd9b965d9",
    "conjecture2/exhaustive/4": "08dd8d223e29052094d740428304e1326a3fed2c9c7038c586795ce561b75f1c",
    "conjecture2/random/6": "fe9a455996131f0ac391ab94e1823bfa1fd71fd4ba242bb373295fc26a847dd6",
    "partial-claim/exhaustive/1": "79536d850d08da00850c8e41d1f8c600d9954357d53e5d22a047993b1f3177a4",
    "partial-claim/exhaustive/2": "a9e19b23aca7d1d2927d946af4023084444c0e71b9adcc71131330a9d9419565",
    "partial-claim/exhaustive/3": "0a4a6add32bafded3e262de7f55204df5b9a31beba48e0987da54f9009a184c5",
    "partial-claim/exhaustive/4": "616168f9f65e056464cb5e3131dca06fc56e6f6141dc3e4108dc2d4a0e790549",
    "partial-claim/random/6": "0cd4001b2ad219ec58100a7beb2d3bb2deae25bb7d2601edb304ec46eea3be75",
    "edge-iso/exhaustive/1": "7db22d76414225727dfee2ec6e254f11f9b938d1aa8cf886adb7b2b8afa5224c",
    "edge-iso/exhaustive/2": "09b62fd0202333b4910153ac45a306f38f172075a851162e3d2a1cf10f692c83",
    "edge-iso/exhaustive/3": "897cff385e6ecdac4e199d36c0a59820b4f7b309a820b6bc92d12a0e101d253b",
    "edge-iso/exhaustive/4": "5e039972cdfae2cca4f0fbbc601408b62d6b2de0e181356c0c419286d5a90253",
    "edge-iso/random/6": "52aa8246c9d41f638448ae922e1a68f2ebec59b1697f8cfadc81a12bf2da5e81",
    "kotlov/exhaustive/1": "9a23d7ff6d7275c6b711c07e0afbee0e7947f0e177e30f13d0d351aa47818a86",
    "kotlov/exhaustive/2": "0ee72a2595147167bc3c8d1edc6383fc7f6af47a4cf259e2991246b2e5c96e39",
    "kotlov/exhaustive/3": "cac89ee1d7defe75d3996d9e363631c48bccf417f557b613dd6d477e7134d5bd",
    "kotlov/exhaustive/4": "549a1fc9d2e146d7115c3fe1c54b66b2a419df5e27ce2d6a239480ad83c63270",
    "kotlov/random/6": "186c532ac46d862f5757888256e2730d1ef6144d11816788d102c1c6f4b56270",
    "fkn-zero/exhaustive/1": "151e35bdb286fef34352e8e4aa7caf26d684be4cc27c9d7ae466c17cd7e5b7e2",
    "fkn-zero/exhaustive/2": "fc93ee91585318fe51770c6398755d3bbb331c80a61fa42fa1e52ba84cce3e17",
    "fkn-zero/exhaustive/3": "0d986d3329f56018657a8ddca3e4d8db415ce97a45fefc2ab0e5e353e50bf46e",
    "fkn-zero/exhaustive/4": "bf713f0f90beb949ecb0c0127e48ce1fa2f8c33437c432c9e3992a31f29ca493",
    "fkn-zero/random/6": "d31eda81b392f67c29b5d6151d52af6aad2d8bb76b6e4fd526ee051b4ffe79b7",
    "ks-zero/exhaustive/2": "f0b1eb16952647d9147c37a826d4dd38c78a83d906e9ecddf4240c5649e3662a",
    "ks-zero/exhaustive/3": "89ee753f671e49d06b7753dca96933fb9a7d3392a5a8b5d5d817096a2f5ab40e",
    "ks-zero/exhaustive/4": "33a6f155b599feae235f6119ebe93e8a6202ad7315b04081add317c82e6d3a9e",
    "ks-zero/random/6": "77893dce177757bbbc7c11cc91501e2e6f63f013617a3a5dda16da034db4f8b8",
    "positive-cap/exhaustive/1": "2d8b4c52a443c7471ddbb352ae753dbfa8c3f14fe156effab24a16f39bb8b20f",
    "positive-cap/exhaustive/2": "56c7dc3f62eb647e0c9010d8e2532d1d7d3b976346fefc38b58c3bfe02fbeff5",
    "positive-cap/exhaustive/3": "4bbd890355d58c2c744ce6771f6b33cc9b590635a3aeb3f45a4cc09ee859f2e4",
    "positive-cap/exhaustive/4": "e5b267087ef3afa74dd54ca20b5a913b8b4300eb1e99191fe71e42878cd40992",
    "positive-cap/random/6": "6f5b02b8b51d74df5b598deb8489f7c764a90437f7f587a23c23f50131e02fe7",
    "thin-boundary/exhaustive/1": "8001bec9b0703c23033817b4a4c5a4089675008cd4174d4c3d143ac606e936f5",
    "thin-boundary/exhaustive/2": "2d364eafd404a17563b3a4f6bef48594f4de89850befb6dad3576b7a48beaef3",
    "thin-boundary/exhaustive/3": "8dedc86d043834e66b244acaf1119ea64b40f90d2b0596ec118ceb3cc2fca8b6",
    "thin-boundary/exhaustive/4": "3637660c07e7fbf5ed3e53812db3b6f22eeb7f1c36a32f26e4a170f707d3511b",
    "thin-boundary/random/6": "1a949b7a18c888405f9e07a167b39bb53e94e769e616e998583467c07c50ad6f",
    "scan/conjecture2/6": "ed2300a5a52e2790572187a07f856b70a763c7d150dc143d69f5b9beadb3e70d",
    "scan/theorem2-deficiency/6": "3104d48f9461e8c485f355c7e47cc3aa94d76edd5cff1b8eac2bc2f2c4cc2048",
}


@pytest.mark.parametrize("case", list(_cases()))
def test_sweep_output_matches_golden(case, tmp_path):
    assert _digest(case, tmp_path) == GOLDEN[case]


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in _cases():
            print(f'    "{case}": "{_digest(case, pathlib.Path(tmp))}",')
