"""The command line prints the same bytes as the digests recorded below.

Each command runs in-process through ``skein.cli.main``; its digest is the
SHA-256 of the exit code, stdout and stderr, joined by NUL bytes.  A change
that keeps every value must keep these digests; a change that means to alter
output records new ones and says why.  ``verify`` prints its wall times on
stderr, so only its exit code and stdout are digested.  ``symmetry`` leaves
out p = 3 on ``petersen.poly``, whose published outcome the Petersen
acceptance test disputes.
"""

import contextlib
import hashlib
import io

from skein import fixtures
from skein.cli import main

_GRAPH_COMMANDS = (
    ["yamada"], ["bracket"], ["phi"], ["phi", "--surface", "pants"], ["phi", "--surface", "annulus"],
)
_SYMMETRY_INPUTS = (
    ["--poly", "fixture:petersen.poly"],
    ["--diagram", "fixture:theta.graph", "--quotient-diagram", "fixture:circle.graph"],
)


def _commands():
    graphs = [name for name in fixtures.list_fixtures() if name.endswith(".graph")]
    for name in graphs:
        for command, *options in _GRAPH_COMMANDS:
            for output in ("text", "machine"):
                yield [command, f"fixture:{name}", *options, "--output", output]
    for p in (2, 5, 7, 41):
        for inputs in _SYMMETRY_INPUTS:
            for mode in ("saturated", "folded"):
                for output in ("text", "machine"):
                    yield ["symmetry", "--p", str(p), *inputs, "--mode", mode, "--output", output]
    yield ["verify", "--suite", "phi", "--verbose"]


def _digest(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    stderr = "" if args[0] == "verify" else err.getvalue()
    return hashlib.sha256(f"{code}\0{out.getvalue()}\0{stderr}".encode()).hexdigest()


def test_cli_prints_the_recorded_bytes():
    commands = [" ".join(args) for args in _commands()]
    assert sorted(commands) == sorted(DIGESTS)
    changed = [c for c in commands if _digest(c.split()) != DIGESTS[c]]
    assert not changed, changed


DIGESTS = {
    "yamada fixture:annulus_core.graph --output text":
        "e049fae77bfaee64c170b15c1806e6821fa4752c27e3ffafbbea5c60f69a0519",
    "yamada fixture:annulus_core.graph --output machine":
        "e049fae77bfaee64c170b15c1806e6821fa4752c27e3ffafbbea5c60f69a0519",
    "bracket fixture:annulus_core.graph --output text":
        "0c7eae81adc04b080288fea4a5833d1dcb5cc5da6ef2aad74785ae8d60dc4ab3",
    "bracket fixture:annulus_core.graph --output machine":
        "0c7eae81adc04b080288fea4a5833d1dcb5cc5da6ef2aad74785ae8d60dc4ab3",
    "phi fixture:annulus_core.graph --output text":
        "bbf4a9e4fae15545391aeff51a8b3e6ef7c06dfed066fcc9acb3df551bcf5af4",
    "phi fixture:annulus_core.graph --output machine":
        "bbf4a9e4fae15545391aeff51a8b3e6ef7c06dfed066fcc9acb3df551bcf5af4",
    "phi fixture:annulus_core.graph --surface pants --output text":
        "992794856df072c6193d133433dade25c4603c25341d4504a3ca09e9da9278b9",
    "phi fixture:annulus_core.graph --surface pants --output machine":
        "6a8deaed2e003ef5a60f96ee4464d4fa59da075bcffbf1225ee249f4b6ea7db2",
    "phi fixture:annulus_core.graph --surface annulus --output text":
        "9a90adc4979757b0b8ac6a8faaf8808d7f55334ae92521ebeea69b75640db12d",
    "phi fixture:annulus_core.graph --surface annulus --output machine":
        "cc0cf7ac558be9363841d92f2d1a47e1e2599905997a1852297e72fc8388d3c1",
    "yamada fixture:bouquet1.graph --output text":
        "e7f9e82e6fac7db54e0a467fbd3991ca8fa0098730c657928e0d950dc243c471",
    "yamada fixture:bouquet1.graph --output machine":
        "413224acd97b9510d792f830a6de3add0fc461a645d78d14c837f0f765c98ab1",
    "bracket fixture:bouquet1.graph --output text":
        "0c7eae81adc04b080288fea4a5833d1dcb5cc5da6ef2aad74785ae8d60dc4ab3",
    "bracket fixture:bouquet1.graph --output machine":
        "0c7eae81adc04b080288fea4a5833d1dcb5cc5da6ef2aad74785ae8d60dc4ab3",
    "phi fixture:bouquet1.graph --output text":
        "d19188bdae5a0d7d44b4e2f9890ec5c70e5d7938827b97be7c5c26963507b8b9",
    "phi fixture:bouquet1.graph --output machine":
        "413224acd97b9510d792f830a6de3add0fc461a645d78d14c837f0f765c98ab1",
    "phi fixture:bouquet1.graph --surface pants --output text":
        "52e94be19cfcdedb1bce8f9eae4b43ff14a55c8184248f0b3b4626f4fda7cf76",
    "phi fixture:bouquet1.graph --surface pants --output machine":
        "7d90ccaf66d54945b5671a8eac83904dce82b38e09efadb19ab46683a6b54346",
    "phi fixture:bouquet1.graph --surface annulus --output text":
        "52e94be19cfcdedb1bce8f9eae4b43ff14a55c8184248f0b3b4626f4fda7cf76",
    "phi fixture:bouquet1.graph --surface annulus --output machine":
        "1f8f4b9029ce2a13c907a72f8038db1fd73aa4b05a15503be9667b874c0df0a6",
    "yamada fixture:bouquet2.graph --output text":
        "6b8a26b8eb5d0b245f7f14fd83c7d7bc21ccb76952a78ed99bdc0a12a31344f1",
    "yamada fixture:bouquet2.graph --output machine":
        "9aacfd0f4aa82d7c4d6cde738971b9a316357412a4344b5a52c27ce7b4c4b964",
    "bracket fixture:bouquet2.graph --output text":
        "0c7eae81adc04b080288fea4a5833d1dcb5cc5da6ef2aad74785ae8d60dc4ab3",
    "bracket fixture:bouquet2.graph --output machine":
        "0c7eae81adc04b080288fea4a5833d1dcb5cc5da6ef2aad74785ae8d60dc4ab3",
    "phi fixture:bouquet2.graph --output text":
        "f77406e8d049a9b03a447009a31faf3b88987fc698b6b3311716e1f43f062b85",
    "phi fixture:bouquet2.graph --output machine":
        "9aacfd0f4aa82d7c4d6cde738971b9a316357412a4344b5a52c27ce7b4c4b964",
    "phi fixture:bouquet2.graph --surface pants --output text":
        "d4c468723258b33e666178b33f34081471fcc6ffd80f1767965baf4caad1f10f",
    "phi fixture:bouquet2.graph --surface pants --output machine":
        "b64761e5ee897c92e599619cb7055bd1ec86f1860ed2eb75273164648c5ec547",
    "phi fixture:bouquet2.graph --surface annulus --output text":
        "d4c468723258b33e666178b33f34081471fcc6ffd80f1767965baf4caad1f10f",
    "phi fixture:bouquet2.graph --surface annulus --output machine":
        "8747dfe52b9c948b45b007975edb56c9ed6c06b971e0acfd4ee0869d77566a79",
    "yamada fixture:bouquet2_nested.graph --output text":
        "6b8a26b8eb5d0b245f7f14fd83c7d7bc21ccb76952a78ed99bdc0a12a31344f1",
    "yamada fixture:bouquet2_nested.graph --output machine":
        "9aacfd0f4aa82d7c4d6cde738971b9a316357412a4344b5a52c27ce7b4c4b964",
    "bracket fixture:bouquet2_nested.graph --output text":
        "0c7eae81adc04b080288fea4a5833d1dcb5cc5da6ef2aad74785ae8d60dc4ab3",
    "bracket fixture:bouquet2_nested.graph --output machine":
        "0c7eae81adc04b080288fea4a5833d1dcb5cc5da6ef2aad74785ae8d60dc4ab3",
    "phi fixture:bouquet2_nested.graph --output text":
        "f77406e8d049a9b03a447009a31faf3b88987fc698b6b3311716e1f43f062b85",
    "phi fixture:bouquet2_nested.graph --output machine":
        "9aacfd0f4aa82d7c4d6cde738971b9a316357412a4344b5a52c27ce7b4c4b964",
    "phi fixture:bouquet2_nested.graph --surface pants --output text":
        "d4c468723258b33e666178b33f34081471fcc6ffd80f1767965baf4caad1f10f",
    "phi fixture:bouquet2_nested.graph --surface pants --output machine":
        "b64761e5ee897c92e599619cb7055bd1ec86f1860ed2eb75273164648c5ec547",
    "phi fixture:bouquet2_nested.graph --surface annulus --output text":
        "d4c468723258b33e666178b33f34081471fcc6ffd80f1767965baf4caad1f10f",
    "phi fixture:bouquet2_nested.graph --surface annulus --output machine":
        "8747dfe52b9c948b45b007975edb56c9ed6c06b971e0acfd4ee0869d77566a79",
    "yamada fixture:bouquet3.graph --output text":
        "523ed9c00b87124469e9762487160e750a151d883710a8667aa1c13d049e55e2",
    "yamada fixture:bouquet3.graph --output machine":
        "56f70ff2545554d00598df0737507ab5d450f5a7dc71eff16089bebff62e4840",
    "bracket fixture:bouquet3.graph --output text":
        "0c7eae81adc04b080288fea4a5833d1dcb5cc5da6ef2aad74785ae8d60dc4ab3",
    "bracket fixture:bouquet3.graph --output machine":
        "0c7eae81adc04b080288fea4a5833d1dcb5cc5da6ef2aad74785ae8d60dc4ab3",
    "phi fixture:bouquet3.graph --output text":
        "f46b46c7f05f2372a069bfa33effb61a7a6ac3d870886d2f10093005ce2f933f",
    "phi fixture:bouquet3.graph --output machine":
        "56f70ff2545554d00598df0737507ab5d450f5a7dc71eff16089bebff62e4840",
    "phi fixture:bouquet3.graph --surface pants --output text":
        "22655be87d936b569b6f7c5bfc740650403acfb8985b645d29663ecb3af94505",
    "phi fixture:bouquet3.graph --surface pants --output machine":
        "81ff4092fdfb8cc608168dfc9bf21558ce4b05d42e4b7c5c242af6e28cfa9a89",
    "phi fixture:bouquet3.graph --surface annulus --output text":
        "22655be87d936b569b6f7c5bfc740650403acfb8985b645d29663ecb3af94505",
    "phi fixture:bouquet3.graph --surface annulus --output machine":
        "4020f554b308a533e979d9c4f053a0a60afd75e6d28b51d479ad3437e23d0505",
    "yamada fixture:bouquet4.graph --output text":
        "4367f79bcdcd514915bdde1e8b12b44d1e19b37b63645fedaa5628d0a3c7cbe7",
    "yamada fixture:bouquet4.graph --output machine":
        "80e18d34a77aed701e75b969fc9fd6b38d962510942e374c91b9bbe0c4236a9d",
    "bracket fixture:bouquet4.graph --output text":
        "0c7eae81adc04b080288fea4a5833d1dcb5cc5da6ef2aad74785ae8d60dc4ab3",
    "bracket fixture:bouquet4.graph --output machine":
        "0c7eae81adc04b080288fea4a5833d1dcb5cc5da6ef2aad74785ae8d60dc4ab3",
    "phi fixture:bouquet4.graph --output text":
        "78fbda4877de5bf5951642d9737c3e3dc123f1b855b67197f86098aa7bf6e719",
    "phi fixture:bouquet4.graph --output machine":
        "80e18d34a77aed701e75b969fc9fd6b38d962510942e374c91b9bbe0c4236a9d",
    "phi fixture:bouquet4.graph --surface pants --output text":
        "0382476295ce50b0f2ba088f021ef6b24d74fe28c3bc7071dc13d8d717caa355",
    "phi fixture:bouquet4.graph --surface pants --output machine":
        "1274025a60285d76e3add38d3e4ffac21cadf47ecdd0ca72a1f4c6487565a10e",
    "phi fixture:bouquet4.graph --surface annulus --output text":
        "0382476295ce50b0f2ba088f021ef6b24d74fe28c3bc7071dc13d8d717caa355",
    "phi fixture:bouquet4.graph --surface annulus --output machine":
        "ba23fca0c11bc463f7dd55a6a9c9f7b55e4637e34b7ca759517923f03d10dd33",
    "yamada fixture:circle.graph --output text":
        "e7f9e82e6fac7db54e0a467fbd3991ca8fa0098730c657928e0d950dc243c471",
    "yamada fixture:circle.graph --output machine":
        "413224acd97b9510d792f830a6de3add0fc461a645d78d14c837f0f765c98ab1",
    "bracket fixture:circle.graph --output text":
        "b60c26a23e5db819550a733be9ebbaa3f9e10ce8f0b6783a7cad2436dc1b9d6a",
    "bracket fixture:circle.graph --output machine":
        "04ce3255b4e1fa6bf789349e5ad8a3ea87479ce5a320a6485640516425623824",
    "phi fixture:circle.graph --output text":
        "d19188bdae5a0d7d44b4e2f9890ec5c70e5d7938827b97be7c5c26963507b8b9",
    "phi fixture:circle.graph --output machine":
        "413224acd97b9510d792f830a6de3add0fc461a645d78d14c837f0f765c98ab1",
    "phi fixture:circle.graph --surface pants --output text":
        "52e94be19cfcdedb1bce8f9eae4b43ff14a55c8184248f0b3b4626f4fda7cf76",
    "phi fixture:circle.graph --surface pants --output machine":
        "7d90ccaf66d54945b5671a8eac83904dce82b38e09efadb19ab46683a6b54346",
    "phi fixture:circle.graph --surface annulus --output text":
        "52e94be19cfcdedb1bce8f9eae4b43ff14a55c8184248f0b3b4626f4fda7cf76",
    "phi fixture:circle.graph --surface annulus --output machine":
        "1f8f4b9029ce2a13c907a72f8038db1fd73aa4b05a15503be9667b874c0df0a6",
    "yamada fixture:handcuff.graph --output text":
        "4e75b28190d68cd7e34b3004be42fbe4f4ca9b3fe9181332e04d6962adeadbef",
    "yamada fixture:handcuff.graph --output machine":
        "5ed82ece8c8252f1fae5fba5e908f365a0185f8c92d18de27c9a7225d8f41156",
    "bracket fixture:handcuff.graph --output text":
        "0c7eae81adc04b080288fea4a5833d1dcb5cc5da6ef2aad74785ae8d60dc4ab3",
    "bracket fixture:handcuff.graph --output machine":
        "0c7eae81adc04b080288fea4a5833d1dcb5cc5da6ef2aad74785ae8d60dc4ab3",
    "phi fixture:handcuff.graph --output text":
        "fae624ff94c139877a3400eef52222221b978be63c564d97a22e5df3a7b5375e",
    "phi fixture:handcuff.graph --output machine":
        "5ed82ece8c8252f1fae5fba5e908f365a0185f8c92d18de27c9a7225d8f41156",
    "phi fixture:handcuff.graph --surface pants --output text":
        "a7114dd8b3a4a1f20993f3a9bc6f8af1c894e4a1dd8c33af2f2a6d673faf8273",
    "phi fixture:handcuff.graph --surface pants --output machine":
        "c28ab80ab32e98a15fd352d835281e103aa66fa4093a19606fd1f48e89ada310",
    "phi fixture:handcuff.graph --surface annulus --output text":
        "a7114dd8b3a4a1f20993f3a9bc6f8af1c894e4a1dd8c33af2f2a6d673faf8273",
    "phi fixture:handcuff.graph --surface annulus --output machine":
        "ef2dceae142b1c7e53ecff15723bb27e8dccd82d2c662a8f234f60a55b05edb0",
    "yamada fixture:hopf.graph --output text":
        "a8dd76835bf7839673cdf7600261ffc21a2f89e64c8e4d5e59d66b1ee6461390",
    "yamada fixture:hopf.graph --output machine":
        "2408e8f207476698de79fd99e12f48cd39c5170b51a5531db401b59b1c5c311c",
    "bracket fixture:hopf.graph --output text":
        "f4ea17b26bf290818f81f9b16a8a20fc16075d267cf598568898fbb4d28cd75e",
    "bracket fixture:hopf.graph --output machine":
        "0aa9f0d1919c1a4584c84847c1bf5f94f5b0c523a923af3b376d6a6c8612f286",
    "phi fixture:hopf.graph --output text":
        "7dd03c2ccf630bd05822e4eeed092f22ec059dc6967499a315a5528b27aba426",
    "phi fixture:hopf.graph --output machine":
        "2408e8f207476698de79fd99e12f48cd39c5170b51a5531db401b59b1c5c311c",
    "phi fixture:hopf.graph --surface pants --output text":
        "1dc182d509250a7d1238de98b63c1aea7dd48511e9ccf89463baec706593de75",
    "phi fixture:hopf.graph --surface pants --output machine":
        "1dc182d509250a7d1238de98b63c1aea7dd48511e9ccf89463baec706593de75",
    "phi fixture:hopf.graph --surface annulus --output text":
        "1dc182d509250a7d1238de98b63c1aea7dd48511e9ccf89463baec706593de75",
    "phi fixture:hopf.graph --surface annulus --output machine":
        "1dc182d509250a7d1238de98b63c1aea7dd48511e9ccf89463baec706593de75",
    "yamada fixture:k4.graph --output text":
        "d83c56e74e200a86a82d238e5f315a98f362c9ea497ac5ec5669a36402a73b62",
    "yamada fixture:k4.graph --output machine":
        "7fa0ce612f902db8970c9e31c1d61044dd45f5ea40a2e5f33a2665833fd1f3c5",
    "bracket fixture:k4.graph --output text":
        "0c7eae81adc04b080288fea4a5833d1dcb5cc5da6ef2aad74785ae8d60dc4ab3",
    "bracket fixture:k4.graph --output machine":
        "0c7eae81adc04b080288fea4a5833d1dcb5cc5da6ef2aad74785ae8d60dc4ab3",
    "phi fixture:k4.graph --output text":
        "55c846c9c0b3c2572e67548d6161efbe0e2d6efd6ebc1e94459287e22d0a0b99",
    "phi fixture:k4.graph --output machine":
        "7fa0ce612f902db8970c9e31c1d61044dd45f5ea40a2e5f33a2665833fd1f3c5",
    "phi fixture:k4.graph --surface pants --output text":
        "35a6ab02b4c3ab5c77a5a4c057e50f071b2d6f3a5d2a626ad3498b55bf6f6859",
    "phi fixture:k4.graph --surface pants --output machine":
        "08f3051bf023d19162713ad7f7212565d493a08f24a2be3079ad769e2f9117a3",
    "phi fixture:k4.graph --surface annulus --output text":
        "35a6ab02b4c3ab5c77a5a4c057e50f071b2d6f3a5d2a626ad3498b55bf6f6859",
    "phi fixture:k4.graph --surface annulus --output machine":
        "72ec802c305669f356985caaa86652e8b8f20d25fce4f6f297d34e3c67a432b5",
    "yamada fixture:kink_neg.graph --output text":
        "7d353961bdda63ad0e0636ba0acf501f63b3c1f679dcdbb9d22324ec0faad9c5",
    "yamada fixture:kink_neg.graph --output machine":
        "447845d7237a7c19ce0470a526265281b1ab0c62d229cd497e810640543c9be1",
    "bracket fixture:kink_neg.graph --output text":
        "e1767fc19ba66937cae89b0341f8e83be29ced1e51cdffdec060e9b998988948",
    "bracket fixture:kink_neg.graph --output machine":
        "4b734a08916ec2f646416e072c8ccf98cb26a32f79e64ddba7d742a745973de0",
    "phi fixture:kink_neg.graph --output text":
        "02cdcfb0e9ff9e02473ab0387e2c653f31805aa268c3e63db52c9e7067e928f6",
    "phi fixture:kink_neg.graph --output machine":
        "447845d7237a7c19ce0470a526265281b1ab0c62d229cd497e810640543c9be1",
    "phi fixture:kink_neg.graph --surface pants --output text":
        "1dc182d509250a7d1238de98b63c1aea7dd48511e9ccf89463baec706593de75",
    "phi fixture:kink_neg.graph --surface pants --output machine":
        "1dc182d509250a7d1238de98b63c1aea7dd48511e9ccf89463baec706593de75",
    "phi fixture:kink_neg.graph --surface annulus --output text":
        "1dc182d509250a7d1238de98b63c1aea7dd48511e9ccf89463baec706593de75",
    "phi fixture:kink_neg.graph --surface annulus --output machine":
        "1dc182d509250a7d1238de98b63c1aea7dd48511e9ccf89463baec706593de75",
    "yamada fixture:kink_pos.graph --output text":
        "4d8fff26328f02a8aceeec55f2897ba9c0852fc2469b1220783169c0cfe683d1",
    "yamada fixture:kink_pos.graph --output machine":
        "9cb234009c6a2ba0b30b62a41c2320123e35468566602fd6113f0e46351316fd",
    "bracket fixture:kink_pos.graph --output text":
        "3b46c8c730cca7a1fba862b31480446dbcbbbde9c698fcd30674c7feb6b79f2f",
    "bracket fixture:kink_pos.graph --output machine":
        "a740fb38e72c9eeea85bd5c10f5be5964918e6609a14b02d699066b3a7d346be",
    "phi fixture:kink_pos.graph --output text":
        "e5716b5e213193f38104b27b3e60a4218487c38f0460658f0431b9e35aef5bea",
    "phi fixture:kink_pos.graph --output machine":
        "9cb234009c6a2ba0b30b62a41c2320123e35468566602fd6113f0e46351316fd",
    "phi fixture:kink_pos.graph --surface pants --output text":
        "1dc182d509250a7d1238de98b63c1aea7dd48511e9ccf89463baec706593de75",
    "phi fixture:kink_pos.graph --surface pants --output machine":
        "1dc182d509250a7d1238de98b63c1aea7dd48511e9ccf89463baec706593de75",
    "phi fixture:kink_pos.graph --surface annulus --output text":
        "1dc182d509250a7d1238de98b63c1aea7dd48511e9ccf89463baec706593de75",
    "phi fixture:kink_pos.graph --surface annulus --output machine":
        "1dc182d509250a7d1238de98b63c1aea7dd48511e9ccf89463baec706593de75",
    "yamada fixture:pants_t.graph --output text":
        "e049fae77bfaee64c170b15c1806e6821fa4752c27e3ffafbbea5c60f69a0519",
    "yamada fixture:pants_t.graph --output machine":
        "e049fae77bfaee64c170b15c1806e6821fa4752c27e3ffafbbea5c60f69a0519",
    "bracket fixture:pants_t.graph --output text":
        "0c7eae81adc04b080288fea4a5833d1dcb5cc5da6ef2aad74785ae8d60dc4ab3",
    "bracket fixture:pants_t.graph --output machine":
        "0c7eae81adc04b080288fea4a5833d1dcb5cc5da6ef2aad74785ae8d60dc4ab3",
    "phi fixture:pants_t.graph --output text":
        "bbf4a9e4fae15545391aeff51a8b3e6ef7c06dfed066fcc9acb3df551bcf5af4",
    "phi fixture:pants_t.graph --output machine":
        "bbf4a9e4fae15545391aeff51a8b3e6ef7c06dfed066fcc9acb3df551bcf5af4",
    "phi fixture:pants_t.graph --surface pants --output text":
        "517eda5b991daf46887030faa0fcf70dcb20eddc028f4f0c59123f1465bbe021",
    "phi fixture:pants_t.graph --surface pants --output machine":
        "cc8399ddabf241be2d35215d8578cd897e54c694eeaa8f85bf51ddea47e7e69e",
    "phi fixture:pants_t.graph --surface annulus --output text":
        "741d5d62331ae23e11d89d41d6098c9fe996d13e14cffad844e7e6c37f2dda65",
    "phi fixture:pants_t.graph --surface annulus --output machine":
        "741d5d62331ae23e11d89d41d6098c9fe996d13e14cffad844e7e6c37f2dda65",
    "yamada fixture:pants_x.graph --output text":
        "e049fae77bfaee64c170b15c1806e6821fa4752c27e3ffafbbea5c60f69a0519",
    "yamada fixture:pants_x.graph --output machine":
        "e049fae77bfaee64c170b15c1806e6821fa4752c27e3ffafbbea5c60f69a0519",
    "bracket fixture:pants_x.graph --output text":
        "0c7eae81adc04b080288fea4a5833d1dcb5cc5da6ef2aad74785ae8d60dc4ab3",
    "bracket fixture:pants_x.graph --output machine":
        "0c7eae81adc04b080288fea4a5833d1dcb5cc5da6ef2aad74785ae8d60dc4ab3",
    "phi fixture:pants_x.graph --output text":
        "bbf4a9e4fae15545391aeff51a8b3e6ef7c06dfed066fcc9acb3df551bcf5af4",
    "phi fixture:pants_x.graph --output machine":
        "bbf4a9e4fae15545391aeff51a8b3e6ef7c06dfed066fcc9acb3df551bcf5af4",
    "phi fixture:pants_x.graph --surface pants --output text":
        "992794856df072c6193d133433dade25c4603c25341d4504a3ca09e9da9278b9",
    "phi fixture:pants_x.graph --surface pants --output machine":
        "6a8deaed2e003ef5a60f96ee4464d4fa59da075bcffbf1225ee249f4b6ea7db2",
    "phi fixture:pants_x.graph --surface annulus --output text":
        "9a90adc4979757b0b8ac6a8faaf8808d7f55334ae92521ebeea69b75640db12d",
    "phi fixture:pants_x.graph --surface annulus --output machine":
        "cc0cf7ac558be9363841d92f2d1a47e1e2599905997a1852297e72fc8388d3c1",
    "yamada fixture:pants_y.graph --output text":
        "e049fae77bfaee64c170b15c1806e6821fa4752c27e3ffafbbea5c60f69a0519",
    "yamada fixture:pants_y.graph --output machine":
        "e049fae77bfaee64c170b15c1806e6821fa4752c27e3ffafbbea5c60f69a0519",
    "bracket fixture:pants_y.graph --output text":
        "0c7eae81adc04b080288fea4a5833d1dcb5cc5da6ef2aad74785ae8d60dc4ab3",
    "bracket fixture:pants_y.graph --output machine":
        "0c7eae81adc04b080288fea4a5833d1dcb5cc5da6ef2aad74785ae8d60dc4ab3",
    "phi fixture:pants_y.graph --output text":
        "bbf4a9e4fae15545391aeff51a8b3e6ef7c06dfed066fcc9acb3df551bcf5af4",
    "phi fixture:pants_y.graph --output machine":
        "bbf4a9e4fae15545391aeff51a8b3e6ef7c06dfed066fcc9acb3df551bcf5af4",
    "phi fixture:pants_y.graph --surface pants --output text":
        "d093eb743a32655e3d6c1c38055b7d37463166212dd86bc1ae2ad914f785ae63",
    "phi fixture:pants_y.graph --surface pants --output machine":
        "be2e63036a9d5b986919b804c82953d84bc2c8b62d94f7e085515199b859e352",
    "phi fixture:pants_y.graph --surface annulus --output text":
        "741d5d62331ae23e11d89d41d6098c9fe996d13e14cffad844e7e6c37f2dda65",
    "phi fixture:pants_y.graph --surface annulus --output machine":
        "741d5d62331ae23e11d89d41d6098c9fe996d13e14cffad844e7e6c37f2dda65",
    "yamada fixture:pants_z.graph --output text":
        "e049fae77bfaee64c170b15c1806e6821fa4752c27e3ffafbbea5c60f69a0519",
    "yamada fixture:pants_z.graph --output machine":
        "e049fae77bfaee64c170b15c1806e6821fa4752c27e3ffafbbea5c60f69a0519",
    "bracket fixture:pants_z.graph --output text":
        "0c7eae81adc04b080288fea4a5833d1dcb5cc5da6ef2aad74785ae8d60dc4ab3",
    "bracket fixture:pants_z.graph --output machine":
        "0c7eae81adc04b080288fea4a5833d1dcb5cc5da6ef2aad74785ae8d60dc4ab3",
    "phi fixture:pants_z.graph --output text":
        "bbf4a9e4fae15545391aeff51a8b3e6ef7c06dfed066fcc9acb3df551bcf5af4",
    "phi fixture:pants_z.graph --output machine":
        "bbf4a9e4fae15545391aeff51a8b3e6ef7c06dfed066fcc9acb3df551bcf5af4",
    "phi fixture:pants_z.graph --surface pants --output text":
        "4f90f551803757da4be457cfde597fa0ab3c5b21ef71a94c41321874ddfbaa7d",
    "phi fixture:pants_z.graph --surface pants --output machine":
        "0758580c87d8c45281f02222063d19d1bab642ff0d63789da6a87f19798ac4ad",
    "phi fixture:pants_z.graph --surface annulus --output text":
        "741d5d62331ae23e11d89d41d6098c9fe996d13e14cffad844e7e6c37f2dda65",
    "phi fixture:pants_z.graph --surface annulus --output machine":
        "741d5d62331ae23e11d89d41d6098c9fe996d13e14cffad844e7e6c37f2dda65",
    "yamada fixture:petersen_diagram.graph --output text":
        "9cf8218daef472f8234e6fb9b05ad8784e651f4e16f201b8c097945b330af28e",
    "yamada fixture:petersen_diagram.graph --output machine":
        "1918c8b8573d9c742770e4b7158591d14c1381a244871aab1d3ea58ce9ff2dc1",
    "bracket fixture:petersen_diagram.graph --output text":
        "0c7eae81adc04b080288fea4a5833d1dcb5cc5da6ef2aad74785ae8d60dc4ab3",
    "bracket fixture:petersen_diagram.graph --output machine":
        "0c7eae81adc04b080288fea4a5833d1dcb5cc5da6ef2aad74785ae8d60dc4ab3",
    "phi fixture:petersen_diagram.graph --output text":
        "84672993581001c9b871624473a9a4662948695a142092756765df275ef824b5",
    "phi fixture:petersen_diagram.graph --output machine":
        "7d3c6f22e00d8791de98f11078602f3a6c48365f8ce4288a504756a1916cb12a",
    "phi fixture:petersen_diagram.graph --surface pants --output text":
        "1dc182d509250a7d1238de98b63c1aea7dd48511e9ccf89463baec706593de75",
    "phi fixture:petersen_diagram.graph --surface pants --output machine":
        "1dc182d509250a7d1238de98b63c1aea7dd48511e9ccf89463baec706593de75",
    "phi fixture:petersen_diagram.graph --surface annulus --output text":
        "1dc182d509250a7d1238de98b63c1aea7dd48511e9ccf89463baec706593de75",
    "phi fixture:petersen_diagram.graph --surface annulus --output machine":
        "1dc182d509250a7d1238de98b63c1aea7dd48511e9ccf89463baec706593de75",
    "yamada fixture:r2_twostrand.graph --output text":
        "5a0a9be99d6b4ab8e8e21f682f12fc1f364ec4e9110e09f627816d9774668a8a",
    "yamada fixture:r2_twostrand.graph --output machine":
        "183d6022293bab67fa22e2b3f04603b843fad32351e5a4a2fc10f7bcb6d174dc",
    "bracket fixture:r2_twostrand.graph --output text":
        "11927407bd58227f7d9d470f5ad6031e6e1e7c7aae37bc2d788e43a2bf573f13",
    "bracket fixture:r2_twostrand.graph --output machine":
        "e0accc7f4c36ccbeef892ef9df1ced8994c9866b682c75e8555f4d41c1dfd2fe",
    "phi fixture:r2_twostrand.graph --output text":
        "4d03e7c93ee5df8cee1f1854fe8c027d954d33413429d103eec703643a333721",
    "phi fixture:r2_twostrand.graph --output machine":
        "183d6022293bab67fa22e2b3f04603b843fad32351e5a4a2fc10f7bcb6d174dc",
    "phi fixture:r2_twostrand.graph --surface pants --output text":
        "1dc182d509250a7d1238de98b63c1aea7dd48511e9ccf89463baec706593de75",
    "phi fixture:r2_twostrand.graph --surface pants --output machine":
        "1dc182d509250a7d1238de98b63c1aea7dd48511e9ccf89463baec706593de75",
    "phi fixture:r2_twostrand.graph --surface annulus --output text":
        "1dc182d509250a7d1238de98b63c1aea7dd48511e9ccf89463baec706593de75",
    "phi fixture:r2_twostrand.graph --surface annulus --output machine":
        "1dc182d509250a7d1238de98b63c1aea7dd48511e9ccf89463baec706593de75",
    "yamada fixture:r2_unknot.graph --output text":
        "e7f9e82e6fac7db54e0a467fbd3991ca8fa0098730c657928e0d950dc243c471",
    "yamada fixture:r2_unknot.graph --output machine":
        "413224acd97b9510d792f830a6de3add0fc461a645d78d14c837f0f765c98ab1",
    "bracket fixture:r2_unknot.graph --output text":
        "b60c26a23e5db819550a733be9ebbaa3f9e10ce8f0b6783a7cad2436dc1b9d6a",
    "bracket fixture:r2_unknot.graph --output machine":
        "04ce3255b4e1fa6bf789349e5ad8a3ea87479ce5a320a6485640516425623824",
    "phi fixture:r2_unknot.graph --output text":
        "d19188bdae5a0d7d44b4e2f9890ec5c70e5d7938827b97be7c5c26963507b8b9",
    "phi fixture:r2_unknot.graph --output machine":
        "413224acd97b9510d792f830a6de3add0fc461a645d78d14c837f0f765c98ab1",
    "phi fixture:r2_unknot.graph --surface pants --output text":
        "1dc182d509250a7d1238de98b63c1aea7dd48511e9ccf89463baec706593de75",
    "phi fixture:r2_unknot.graph --surface pants --output machine":
        "1dc182d509250a7d1238de98b63c1aea7dd48511e9ccf89463baec706593de75",
    "phi fixture:r2_unknot.graph --surface annulus --output text":
        "1dc182d509250a7d1238de98b63c1aea7dd48511e9ccf89463baec706593de75",
    "phi fixture:r2_unknot.graph --surface annulus --output machine":
        "1dc182d509250a7d1238de98b63c1aea7dd48511e9ccf89463baec706593de75",
    "yamada fixture:r3_a.graph --output text":
        "50a591f4c31a7600d49cfe7a460a91019353df78ff568ad40b670d90c1e1dffc",
    "yamada fixture:r3_a.graph --output machine":
        "99b95d51bb06e948e4f6ca8d9cd73ec7438b7e315929b5ad06c43f28a2db3bd3",
    "bracket fixture:r3_a.graph --output text":
        "29d10c5374eff4ae8255f7f13df731fb5780aac2d47bee598f9ba82b1378ed9c",
    "bracket fixture:r3_a.graph --output machine":
        "9e5e09d7992173289703fc0ee012b409e2502918596290c2a8920fca15dea9df",
    "phi fixture:r3_a.graph --output text":
        "ca4d12ead3478c03c4df2473a8fdd24b1ff84d53a9a5683cfc2ff67d6d71357d",
    "phi fixture:r3_a.graph --output machine":
        "99b95d51bb06e948e4f6ca8d9cd73ec7438b7e315929b5ad06c43f28a2db3bd3",
    "phi fixture:r3_a.graph --surface pants --output text":
        "1dc182d509250a7d1238de98b63c1aea7dd48511e9ccf89463baec706593de75",
    "phi fixture:r3_a.graph --surface pants --output machine":
        "1dc182d509250a7d1238de98b63c1aea7dd48511e9ccf89463baec706593de75",
    "phi fixture:r3_a.graph --surface annulus --output text":
        "1dc182d509250a7d1238de98b63c1aea7dd48511e9ccf89463baec706593de75",
    "phi fixture:r3_a.graph --surface annulus --output machine":
        "1dc182d509250a7d1238de98b63c1aea7dd48511e9ccf89463baec706593de75",
    "yamada fixture:r3_b.graph --output text":
        "50a591f4c31a7600d49cfe7a460a91019353df78ff568ad40b670d90c1e1dffc",
    "yamada fixture:r3_b.graph --output machine":
        "99b95d51bb06e948e4f6ca8d9cd73ec7438b7e315929b5ad06c43f28a2db3bd3",
    "bracket fixture:r3_b.graph --output text":
        "29d10c5374eff4ae8255f7f13df731fb5780aac2d47bee598f9ba82b1378ed9c",
    "bracket fixture:r3_b.graph --output machine":
        "9e5e09d7992173289703fc0ee012b409e2502918596290c2a8920fca15dea9df",
    "phi fixture:r3_b.graph --output text":
        "ca4d12ead3478c03c4df2473a8fdd24b1ff84d53a9a5683cfc2ff67d6d71357d",
    "phi fixture:r3_b.graph --output machine":
        "99b95d51bb06e948e4f6ca8d9cd73ec7438b7e315929b5ad06c43f28a2db3bd3",
    "phi fixture:r3_b.graph --surface pants --output text":
        "1dc182d509250a7d1238de98b63c1aea7dd48511e9ccf89463baec706593de75",
    "phi fixture:r3_b.graph --surface pants --output machine":
        "1dc182d509250a7d1238de98b63c1aea7dd48511e9ccf89463baec706593de75",
    "phi fixture:r3_b.graph --surface annulus --output text":
        "1dc182d509250a7d1238de98b63c1aea7dd48511e9ccf89463baec706593de75",
    "phi fixture:r3_b.graph --surface annulus --output machine":
        "1dc182d509250a7d1238de98b63c1aea7dd48511e9ccf89463baec706593de75",
    "yamada fixture:theta.graph --output text":
        "aa7e47c254d04ef3cdf0a0ec5fbd3c20f75ca832ecb3a007133ef80a80e6b7e0",
    "yamada fixture:theta.graph --output machine":
        "25d1f9566cad1550f555962cd2f57ce1585cb09882262e238c54a74c43b4362a",
    "bracket fixture:theta.graph --output text":
        "0c7eae81adc04b080288fea4a5833d1dcb5cc5da6ef2aad74785ae8d60dc4ab3",
    "bracket fixture:theta.graph --output machine":
        "0c7eae81adc04b080288fea4a5833d1dcb5cc5da6ef2aad74785ae8d60dc4ab3",
    "phi fixture:theta.graph --output text":
        "552c3e2fbcff075770fecd566cdcc91ee9f997ec71a2ba85e8fab56054074d90",
    "phi fixture:theta.graph --output machine":
        "25d1f9566cad1550f555962cd2f57ce1585cb09882262e238c54a74c43b4362a",
    "phi fixture:theta.graph --surface pants --output text":
        "7722576b379b2f5101819a1b35f71c97924dbc925fa656536b552d0d9e656f3b",
    "phi fixture:theta.graph --surface pants --output machine":
        "d69e2c0494c771d9cde111f2c6bac57cd31701e2761fdcdc2ddbdce035996884",
    "phi fixture:theta.graph --surface annulus --output text":
        "7722576b379b2f5101819a1b35f71c97924dbc925fa656536b552d0d9e656f3b",
    "phi fixture:theta.graph --surface annulus --output machine":
        "af01508f2db6f056d49e7becf87c4e97a5dfd734cf10bfd08d6782cee700d87f",
    "yamada fixture:two_circles.graph --output text":
        "5a0a9be99d6b4ab8e8e21f682f12fc1f364ec4e9110e09f627816d9774668a8a",
    "yamada fixture:two_circles.graph --output machine":
        "183d6022293bab67fa22e2b3f04603b843fad32351e5a4a2fc10f7bcb6d174dc",
    "bracket fixture:two_circles.graph --output text":
        "11927407bd58227f7d9d470f5ad6031e6e1e7c7aae37bc2d788e43a2bf573f13",
    "bracket fixture:two_circles.graph --output machine":
        "e0accc7f4c36ccbeef892ef9df1ced8994c9866b682c75e8555f4d41c1dfd2fe",
    "phi fixture:two_circles.graph --output text":
        "4d03e7c93ee5df8cee1f1854fe8c027d954d33413429d103eec703643a333721",
    "phi fixture:two_circles.graph --output machine":
        "183d6022293bab67fa22e2b3f04603b843fad32351e5a4a2fc10f7bcb6d174dc",
    "phi fixture:two_circles.graph --surface pants --output text":
        "bc15b8cca25271e68db9556adb07e09c7690e55affd422b063c7b4d7a8514edd",
    "phi fixture:two_circles.graph --surface pants --output machine":
        "639a0a160f7ec7d8b4821fa080a768ef8d917ea098b3c5858b143b3fef6e4d35",
    "phi fixture:two_circles.graph --surface annulus --output text":
        "bc15b8cca25271e68db9556adb07e09c7690e55affd422b063c7b4d7a8514edd",
    "phi fixture:two_circles.graph --surface annulus --output machine":
        "2d3ccc2f2ad034b0e04c5ff240226771346a15b869ee57d65d1d4395c7705cbc",
    "symmetry --p 2 --poly fixture:petersen.poly --mode saturated --output text":
        "b4b70b3732edb0fc85d397be065e8457617485df53718ba218bdfc405fdd4620",
    "symmetry --p 2 --poly fixture:petersen.poly --mode saturated --output machine":
        "ee30bb7ca2f39ea3d913ebc4b783a7a3b1b7a9c24b4c807b6f1532b5f548124c",
    "symmetry --p 2 --poly fixture:petersen.poly --mode folded --output text":
        "5ab9663fe2c52d0b074f7ddfb0c1b998910bfa2ab80085861d700ce47ae26741",
    "symmetry --p 2 --poly fixture:petersen.poly --mode folded --output machine":
        "323c2149e1344250a54b6fc831bb26dd550670000e30acdfb04691c8e4220a33",
    "symmetry --p 2 --diagram fixture:theta.graph --quotient-diagram fixture:circle.graph --mode saturated --output text":
        "e884c87a2026f140c94165f2965bf6b148e025e950fafcb63f27b31dcfd4c619",
    "symmetry --p 2 --diagram fixture:theta.graph --quotient-diagram fixture:circle.graph --mode saturated --output machine":
        "2a142c6751f70e9654bfc6dcd9a689a5bae75ceb81dee3f010343e9a05963297",
    "symmetry --p 2 --diagram fixture:theta.graph --quotient-diagram fixture:circle.graph --mode folded --output text":
        "dee034bce21f920a40532c1e50b7db184be9c1088c79fdfe83edffefaf66930b",
    "symmetry --p 2 --diagram fixture:theta.graph --quotient-diagram fixture:circle.graph --mode folded --output machine":
        "bf9ecd70ce25132c751b41f0542ed4da54387b48dc1b174438b10da3465913f9",
    "symmetry --p 5 --poly fixture:petersen.poly --mode saturated --output text":
        "46ac333dd0bb4dc66d1741b3e946815be63d62226d6789e54a77ae5f3c89ab0e",
    "symmetry --p 5 --poly fixture:petersen.poly --mode saturated --output machine":
        "f4156583084fc187cf29fc79062a59458f9ff8348603733971cbc0b7f12ac9e8",
    "symmetry --p 5 --poly fixture:petersen.poly --mode folded --output text":
        "4a57a9bd56dac3bbe44f248485b4b62083ba64607367e315103838cfbee9d7b0",
    "symmetry --p 5 --poly fixture:petersen.poly --mode folded --output machine":
        "1bd1c4b2e6e0484901aa82a1aa557430bcfc73686be7a3a5be5ea0be9be2ecd7",
    "symmetry --p 5 --diagram fixture:theta.graph --quotient-diagram fixture:circle.graph --mode saturated --output text":
        "b832529738ac4a2a36c701ccc39d211b03702f18d4272bb1faf86189194a11a8",
    "symmetry --p 5 --diagram fixture:theta.graph --quotient-diagram fixture:circle.graph --mode saturated --output machine":
        "1a1c60312652a4a55cf172b1ae1a6963aefe83d6ed174f0e54035defcd3b9f6e",
    "symmetry --p 5 --diagram fixture:theta.graph --quotient-diagram fixture:circle.graph --mode folded --output text":
        "cb02a88085d25743c936a20bbbfa3ece971286176544097a1957f1d817769b01",
    "symmetry --p 5 --diagram fixture:theta.graph --quotient-diagram fixture:circle.graph --mode folded --output machine":
        "bc665cbddca77a652416fabe56bd507721ee3e26c9b895d7ea5efcdb454801a6",
    "symmetry --p 7 --poly fixture:petersen.poly --mode saturated --output text":
        "6f814a8a296889430415148bfc011c9b96125edb9646145e62d97ed169d4edc7",
    "symmetry --p 7 --poly fixture:petersen.poly --mode saturated --output machine":
        "d37929ba17ea2d99af3fcf2c65d0f978496ce2b86f4f6b0073ca555d622316b8",
    "symmetry --p 7 --poly fixture:petersen.poly --mode folded --output text":
        "4f76e3a0f550fb26b3b47d3ffd67c8956451b6987fd810ba663654ea46a0dbdf",
    "symmetry --p 7 --poly fixture:petersen.poly --mode folded --output machine":
        "805260400701b9e1f37e02932275c7324ab12782eb909ae99f1a5b0dddfe66d8",
    "symmetry --p 7 --diagram fixture:theta.graph --quotient-diagram fixture:circle.graph --mode saturated --output text":
        "833d790c43eb0c91e0be9b2b1bcfc1af13fb7261842d4000947d329292577e79",
    "symmetry --p 7 --diagram fixture:theta.graph --quotient-diagram fixture:circle.graph --mode saturated --output machine":
        "1484d288f216e4efb7f94847b35c3d4c3b7b528bad66f998668f5252a420cb93",
    "symmetry --p 7 --diagram fixture:theta.graph --quotient-diagram fixture:circle.graph --mode folded --output text":
        "bf6109817d009f9fe6a0f2deca2cbab835168aa43b1831c6925df9412fb7d09c",
    "symmetry --p 7 --diagram fixture:theta.graph --quotient-diagram fixture:circle.graph --mode folded --output machine":
        "4ea89c161c87fe3f024b757e07e43c89a6b5d7aeab4e81c37c24473d4807429d",
    "symmetry --p 41 --poly fixture:petersen.poly --mode saturated --output text":
        "afe0c58c75cb42e04ab1f5d8f00aec4239c97d9f51ba86d2c7ccb91e1e10ab22",
    "symmetry --p 41 --poly fixture:petersen.poly --mode saturated --output machine":
        "bec4bdb3c8c7bd810c06e6300d8ca92b10f90967cc96d508a14b3c8a8d74d30f",
    "symmetry --p 41 --poly fixture:petersen.poly --mode folded --output text":
        "62cc2d79008e572191e696332627ed7564ba3905ffe12d718f1554dbbdc469db",
    "symmetry --p 41 --poly fixture:petersen.poly --mode folded --output machine":
        "9588c46d714c869a3617181e603d4b4e5bf9303eb8ffff8113dff3de1c7b68c7",
    "symmetry --p 41 --diagram fixture:theta.graph --quotient-diagram fixture:circle.graph --mode saturated --output text":
        "111878fb4f5cb4a2e9e7209d54b26b3f88ea8a8bddba98fb0baccf25f9845613",
    "symmetry --p 41 --diagram fixture:theta.graph --quotient-diagram fixture:circle.graph --mode saturated --output machine":
        "b3bb3e5243fbdb0e92ceb30e47cec64748c1c89c6116676cde91693484cea275",
    "symmetry --p 41 --diagram fixture:theta.graph --quotient-diagram fixture:circle.graph --mode folded --output text":
        "23dee409c1730c6f48f0ae06e11118faf809a65762f1620a91db54e9a0692842",
    "symmetry --p 41 --diagram fixture:theta.graph --quotient-diagram fixture:circle.graph --mode folded --output machine":
        "574f87d9792889b9217cd249666beabce48859015c8e7075b379f18a29017ea6",
    "verify --suite phi --verbose":
        "36b1636701da83dc7242a1f63dad3e3a6dc1d46b4cb68ce4101f18cec6d51d32",
}
