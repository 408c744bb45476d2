"""Golden Table II CNOT counts for all nine molecules, and routed SABRE
circuits pinned byte for byte.

Each molecule's UCCSD ansatz is compressed to ratio 0.3, chain-synthesized
and Merge-to-Root-compiled on XTree17Q, then run through the adjacency-only
and the commutation-aware cancellation passes -- the recipe of
``collect_compiler_optimization_stats`` in ``benchmarks/bench_primitives.py``.
The pins equal the committed ``BENCH_compiler.json`` rows.  A refactor of
compression, synthesis, routing or cancellation that moves any of them
must say so and re-record them on purpose.

The SABRE pins hash the routed circuit's OpenQASM text, so any change to
the router's SWAP choices, emission order or final layout moves them.
"""

import hashlib
from pathlib import Path

import pytest

import repro
from repro.bench.corpus import corpus_devices, load_corpus
from repro.circuit.qasm import from_qasm, to_qasm

from repro.ansatz import build_uccsd_program
from repro.chem import build_molecule_hamiltonian
from repro.compiler import (
    MergeToRootCompiler,
    cancel_gates,
    get_compiler,
    synthesize_program_chain,
)
from repro.core import compress_ansatz
from repro.hardware import get_device, xtree

CORPUS_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "corpus"

#: molecule -> (chain_cnots, mtr_cnots, mtr_cnots_adjacency, mtr_cnots_commute)
TABLE2_CNOTS = {
    "H2": (48, 48, 48, 44),
    "LiH": (208, 208, 188, 176),
    "NaH": (464, 464, 436, 372),
    "HF": (912, 912, 704, 472),
    "H2O": (3840, 3840, 2840, 2136),
    "BeH2": (3808, 3808, 2646, 2004),
    "BH3": (9632, 9632, 6882, 4744),
    "NH3": (9680, 9680, 6314, 4658),
    "CH4": (19040, 19076, 12176, 8326),
}


@pytest.mark.parametrize("molecule", sorted(TABLE2_CNOTS))
def test_table2_cnot_counts(molecule):
    problem = build_molecule_hamiltonian(molecule)
    program = build_uccsd_program(problem).program
    compressed = compress_ansatz(program, problem.hamiltonian, 0.3).program
    chain = synthesize_program_chain(compressed, [0.0] * compressed.num_parameters)
    physical = MergeToRootCompiler(xtree(17)).compile(compressed).circuit.decompose_swaps()
    counts = (
        chain.num_cnots(),
        physical.num_cnots(),
        cancel_gates(physical).num_cnots(),
        cancel_gates(physical, commute=True).num_cnots(),
    )
    assert counts == TABLE2_CNOTS[molecule]


#: (molecule, commute) -> SHA-256 of the SABRE-routed circuit's QASM
#: (ratio 0.3, xtree17, seed 7).
SABRE_QASM_SHA256 = {
    ("HF", False): "7bd9ce16420812a5bb6f97ffaa1f503b9b520c41360cb56c536504809462501e",
    ("HF", True): "1f97eed121f6cc7da45cf7d8c471fc08f81f198575eadc99a160cb16a250e277",
    ("H2O", False): "132843034eaee4f44f2ffe286758aab13c51188304cd9f935d8d6c6357e6b53a",
    ("H2O", True): "92788b1ccd11cdf78a84ea13fdcaf9091f3eeb0284ff066c01d63902a5321cba",
}


@pytest.mark.parametrize(
    "molecule,commute", sorted(SABRE_QASM_SHA256), ids=lambda value: str(value)
)
def test_sabre_routed_qasm(molecule, commute):
    config = repro.PipelineConfig(
        molecule=molecule, ratio=0.3, compiler="sabre", device="xtree17",
        seed=7, commute=commute,
    )
    circuit = repro.Pipeline(config).run().compiled.circuit
    digest = hashlib.sha256(to_qasm(circuit).encode()).hexdigest()
    assert digest == SABRE_QASM_SHA256[molecule, commute]


#: (corpus circuit, device, commute) -> SHA-256 of the SABRE-routed QASM,
#: for every committed ``benchmarks/corpus/*.qasm`` on both of its
#: ``corpus_devices``.  They reach the grid devices, barrier-heavy
#: circuits and commutation groups that the molecule pins above do not.
SABRE_CORPUS_QASM_SHA256 = {
    ('adder_cuccaro_2bit', 'grid2x3', False): "3b93858300dd75fa829e9f8eb234de3a096c7e38bd4e74c05da0171d3c146d71",
    ('adder_cuccaro_2bit', 'grid2x3', True): "2a182c137c5babd824c1f226a4277285031723345ee1f60359cc696f5e06e8f1",
    ('adder_cuccaro_2bit', 'xtree6', False): "05d35e5d956b490045766475ca618912842a13a53e59384812f3b6d52e6ca24c",
    ('adder_cuccaro_2bit', 'xtree6', True): "0a2c5746eb9662fa8aade7122645428c53407b9ef3a11d04e7f90aef542961b3",
    ('adder_cuccaro_3bit', 'grid2x4', False): "38c0f741d50513154e298c0e1fc8e37f9d0e41a713f9e6606d93951271f8bc2e",
    ('adder_cuccaro_3bit', 'grid2x4', True): "59f30f8992463a209f136eded31d66f0ccfa9cbc724e023e89d2102a03b3d694",
    ('adder_cuccaro_3bit', 'xtree8', False): "04c94861b05bdcfbaaa7e51fcfae58015cc8b945ae3009157c1b505bd4de8699",
    ('adder_cuccaro_3bit', 'xtree8', True): "39de1fbb4b29d55c548071c88dd3f0b0d20b739374ebcef05845c4e15abebd9c",
    ('cliffordt_n06_d040', 'grid2x3', False): "43ade87990a1b85d9e2453d5ecbe5ab7d94943b09041772959d6a2ca3ef1c59a",
    ('cliffordt_n06_d040', 'grid2x3', True): "3908c1c7c29aac87b42610547fd31ec2865a7b1421d82f8b994673e2f1b683cf",
    ('cliffordt_n06_d040', 'xtree6', False): "6fffae171daf8c66d7f270aaf9028e4682b171199246408c63835470145e5387",
    ('cliffordt_n06_d040', 'xtree6', True): "7462388459aa205aec62a1c08c6556a37324036dd93e54c1b06864d888f802b4",
    ('cliffordt_n08_d060', 'grid2x4', False): "7a4de6cd868e4f3af0bc5c539b4036960ad5d8c9adcc19ca5b0f42dc477fd94c",
    ('cliffordt_n08_d060', 'grid2x4', True): "22fc0c698eb0b8a81ac31dd285f8a6e56422ff0c66e4c3924ac5d9964db442dd",
    ('cliffordt_n08_d060', 'xtree8', False): "0764b3ea164b8715a56f7eb9c70b7cf782d4d8c42e4cb7f9e251ead1f3d771d2",
    ('cliffordt_n08_d060', 'xtree8', True): "8d545be5b9e94b73451a6320fd376ec25108c3bf0b713f0b48b4c38ed24a9852",
    ('cliffordt_n08_d120', 'grid2x4', False): "769feb431fb6944592dcfbee0251ac2236c14c6e7b2db72d669b76b7d0eb8e14",
    ('cliffordt_n08_d120', 'grid2x4', True): "bac75ada666f49a9bfa02d4d8da7f0cd0fdb27b1d36e1f538ef7ddfd9e6b77be",
    ('cliffordt_n08_d120', 'xtree8', False): "6a5f4ec2f88fe1e85e86d809967d3fe1d2ae563631542efdb9b56b6756ec050c",
    ('cliffordt_n08_d120', 'xtree8', True): "7545e284e86e113ea2c45e7037908ee0af90167582c4ed2a68d60f2651533240",
    ('cliffordt_n10_d080', 'grid3x4', False): "51f9c5389896d178f1c3ef9eac810a4de54899b7237c048d0a07a322e38fee88",
    ('cliffordt_n10_d080', 'grid3x4', True): "5c8de95d1508a0f669bd0d800eee8409ea4564fbf39f35dad5e0ff392157e893",
    ('cliffordt_n10_d080', 'xtree10', False): "bbdc1977f55f0226496b8cc416bc890287c4eef4f394b47f29ae1a7507151d55",
    ('cliffordt_n10_d080', 'xtree10', True): "03c35d7ed5e2caa1972ab36d2197b90b28e23bb076258577d19413640de84b2a",
    ('cliffordt_n12_d100', 'grid3x4', False): "8ba8ce7d93ee62cbdfbfe9371b472925534612bfa49b70ede086c399de154b80",
    ('cliffordt_n12_d100', 'grid3x4', True): "72e9b6ab594a3c7d4f78cf606f35546a73aa40bf60a31d54f65328f314c15a96",
    ('cliffordt_n12_d100', 'xtree12', False): "1c2ac1c746c12456ece079899470969c0ff4f6494cc2e2e06a8a91c2eb27aedd",
    ('cliffordt_n12_d100', 'xtree12', True): "3275fc581db2165069c17ddb6166af421b58c2ac5dd049cd89a3c94db061e285",
    ('cliffordt_n12_d160', 'grid3x4', False): "b7404c45f7932c08d10fe2019afebff2eeceea773246f75ff3f54a541179716d",
    ('cliffordt_n12_d160', 'grid3x4', True): "8b507a733301628b04209838d2d21fa8f1f6a2b2ceb322a779554adb354e2a34",
    ('cliffordt_n12_d160', 'xtree12', False): "770b1d86129e5c0fb35ef62411b0edac999ac410ecf99b16e3964d4ea37c63fe",
    ('cliffordt_n12_d160', 'xtree12', True): "063612afbf20ceb4845742eb5be91c478602cd4dd433c8771d05851c7016138b",
    ('ghz_n06', 'grid2x3', False): "27d1b2f247f1eb87e907b7467d1861ac4349228d105e04fdd033033473c99da5",
    ('ghz_n06', 'grid2x3', True): "27d1b2f247f1eb87e907b7467d1861ac4349228d105e04fdd033033473c99da5",
    ('ghz_n06', 'xtree6', False): "a4fb3a2b51fcbb5ffd0644164ec2e5c20e34ad5b79be708e864b07d33c327e9a",
    ('ghz_n06', 'xtree6', True): "a4fb3a2b51fcbb5ffd0644164ec2e5c20e34ad5b79be708e864b07d33c327e9a",
    ('ghz_n10', 'grid3x4', False): "846f8ba90d58afdfcfbf8bba0006be5d930e6ed331472e1188f2ae8acc9899cd",
    ('ghz_n10', 'grid3x4', True): "846f8ba90d58afdfcfbf8bba0006be5d930e6ed331472e1188f2ae8acc9899cd",
    ('ghz_n10', 'xtree10', False): "715f48b5e2e06abbd46789380b0b21bc0f26d215845cdba317dd1dff96857ce5",
    ('ghz_n10', 'xtree10', True): "715f48b5e2e06abbd46789380b0b21bc0f26d215845cdba317dd1dff96857ce5",
    ('ghz_n14', 'grid3x5', False): "ad58b0adead43bafa2f44c52ca55cfb29474badf9ec29a82f6b27dae1390dc53",
    ('ghz_n14', 'grid3x5', True): "ad58b0adead43bafa2f44c52ca55cfb29474badf9ec29a82f6b27dae1390dc53",
    ('ghz_n14', 'xtree14', False): "37220953f61a086a07e66a5cd55df173749d4bb9783d508b5e104d33df56b5f5",
    ('ghz_n14', 'xtree14', True): "37220953f61a086a07e66a5cd55df173749d4bb9783d508b5e104d33df56b5f5",
    ('qaoa_ising_ring_n08_p1', 'grid2x4', False): "6b51b0097c875e6e1eb03a6e23be569870c825e60d59f5423da010047433d350",
    ('qaoa_ising_ring_n08_p1', 'grid2x4', True): "6b51b0097c875e6e1eb03a6e23be569870c825e60d59f5423da010047433d350",
    ('qaoa_ising_ring_n08_p1', 'xtree8', False): "f0f01bc41d4e7275a866c921038e5becb097b801bf960a067e104a14f04fd49f",
    ('qaoa_ising_ring_n08_p1', 'xtree8', True): "f0f01bc41d4e7275a866c921038e5becb097b801bf960a067e104a14f04fd49f",
    ('qaoa_ising_ring_n12_p1', 'grid3x4', False): "387b6d2bb8e21a02223b11811490f1c11c174f871f75b12edff4d908ca4cefad",
    ('qaoa_ising_ring_n12_p1', 'grid3x4', True): "387b6d2bb8e21a02223b11811490f1c11c174f871f75b12edff4d908ca4cefad",
    ('qaoa_ising_ring_n12_p1', 'xtree12', False): "5ccca124fe233b4dd1e580ab14b5e7347d153f8e96db7bd9a8cf659823204347",
    ('qaoa_ising_ring_n12_p1', 'xtree12', True): "d809fbbd494191ee1e2c2da761bcd85b6b92713b893cf7a56f8eb17a57de7910",
    ('qaoa_maxcut_er_n06_p1', 'grid2x3', False): "f364c1d98647b7f65f5bc8421bd185ae44723d0ff4c2c88da28e2496bce1dd41",
    ('qaoa_maxcut_er_n06_p1', 'grid2x3', True): "f03f1dac155d89325d9bce22b6570e4e96d2fdb8db449663f3394bb0da98792d",
    ('qaoa_maxcut_er_n06_p1', 'xtree6', False): "eb32e3dde4bfdc7c4b52b173766a092e59a4994ebc050939dafbae8599ee08d6",
    ('qaoa_maxcut_er_n06_p1', 'xtree6', True): "debd138c05da6425bfb3bc3c05ce79df7904ccb2f7ebce2727232cff938e1c36",
    ('qaoa_maxcut_er_n06_p2', 'grid2x3', False): "0b567b0c32ee15f2ec8046f81321ea54564f1a2f42ec5ba6ac7a3ca4bda8c9c5",
    ('qaoa_maxcut_er_n06_p2', 'grid2x3', True): "a312c5652c09eeb47e29eed96876bcdcf83ad6562ff36b38925f680c8a12bdba",
    ('qaoa_maxcut_er_n06_p2', 'xtree6', False): "5834cc63a2e26ecd85f1ab45f238df481bb57b9a94c50419a381f904f9da4bbd",
    ('qaoa_maxcut_er_n06_p2', 'xtree6', True): "c6df20a2b99b33b127212b1519da9b77609ceacfceede26a9b7e26b6ece10f07",
    ('qaoa_maxcut_er_n08_p1', 'grid2x4', False): "45dc0e7709311505d19a85624228b9b1729340b2f8a738dd69067e7314d7b12c",
    ('qaoa_maxcut_er_n08_p1', 'grid2x4', True): "569360ace7330d61cda5e26d25ac98ba6149af9bc02caa3081dd9b8c11bd5774",
    ('qaoa_maxcut_er_n08_p1', 'xtree8', False): "3e4d34a6c53221670fc03d931dcabe3856f78d1a959628c761da3293e2020de0",
    ('qaoa_maxcut_er_n08_p1', 'xtree8', True): "77eee3c81bab52b56d83a3b8955c51eda9dd2daa32a66b7ed9da241577c36ec2",
    ('qaoa_maxcut_er_n08_p2', 'grid2x4', False): "996ed57bd54f7caa39345b57b571ac797d8ff8dcbb821570953ca260a14478ac",
    ('qaoa_maxcut_er_n08_p2', 'grid2x4', True): "8fa22480379f591959dfd65109426cd537ad8f4b2b1f8f0a6faabd8ddc83572b",
    ('qaoa_maxcut_er_n08_p2', 'xtree8', False): "c1bd692f2727a67edacce7b7dfa89e073c6d952ab98fb9d61dd92f68e9b3dea5",
    ('qaoa_maxcut_er_n08_p2', 'xtree8', True): "3953069efbdf87a427d60752008515fdc98d1eb829c6e7d1e0b166267ceecc17",
    ('qaoa_maxcut_er_n10_p1', 'grid3x4', False): "7b325986c46994812cd1d0027137b0270547f3b59912da337b3325e1b05d82c1",
    ('qaoa_maxcut_er_n10_p1', 'grid3x4', True): "193e912a58e0a6e209f29592878af70e663f2abcdf855de971d4d672dcb30996",
    ('qaoa_maxcut_er_n10_p1', 'xtree10', False): "7f74b2319434b46433e9240b8c25a6b45f32d37219ff029c8f2f8b321bfed6aa",
    ('qaoa_maxcut_er_n10_p1', 'xtree10', True): "f297e759233a6f83e47f2873990699ad4bfde375ff2257411428180fa29f4d7f",
    ('qaoa_maxcut_er_n10_p2', 'grid3x4', False): "ae1992f4ccf4b21c28ca5579993cced2192f650dbd2b2fcc10a848e330cfa386",
    ('qaoa_maxcut_er_n10_p2', 'grid3x4', True): "69b68d5442e86b22cc4e07cf78fc005c0efbe85070a8f412d1932adf8b27e0e8",
    ('qaoa_maxcut_er_n10_p2', 'xtree10', False): "969b4596b5870070c79a60c217fae85d9c7fb06dae297ad90a436f5b3b431821",
    ('qaoa_maxcut_er_n10_p2', 'xtree10', True): "228b305a5b2135d6e381ca9bf5f800085e7acc5b3fdcf00462d0936972dde54b",
    ('qaoa_maxcut_er_n12_p1', 'grid3x4', False): "f2f1be185225a232bc4cc9cc6167d564e121b95d31a8b0fa80c3242e2a5f9759",
    ('qaoa_maxcut_er_n12_p1', 'grid3x4', True): "49a44fd62cecc5c690a2575593fa9f819e851107b83ad050b63bb9457b5846c8",
    ('qaoa_maxcut_er_n12_p1', 'xtree12', False): "5269cfa2a7566febfbb6a0f77a1b8215233af43418695fb3c236a3728d080c07",
    ('qaoa_maxcut_er_n12_p1', 'xtree12', True): "519ac25a75ec520a93fb2d2d418a379c546f259f6b3d23fd50b001b57ad42dfb",
    ('qaoa_maxcut_er_n12_p2', 'grid3x4', False): "248d5b96da93c1d749b6c08c340c7459be020d82e5334915caecc2dd3923eaf5",
    ('qaoa_maxcut_er_n12_p2', 'grid3x4', True): "1f8ad1c603d797567cff7c43dd56b034df1448b810977c254e8015392f9ba1d2",
    ('qaoa_maxcut_er_n12_p2', 'xtree12', False): "d6b0615a939ac713d1802c92adab857c90cd20fb282b22e082e8735f3cf3fb59",
    ('qaoa_maxcut_er_n12_p2', 'xtree12', True): "1a8091154edf347be4137d3ecb54e7dbf1dc910adb73330b8217723bb777708c",
    ('qaoa_maxcut_reg3_n06_p1', 'grid2x3', False): "45067d66d47ad30ab144fd7c9243b12ad78c4397179a9fdf3aeac1b024f84ee5",
    ('qaoa_maxcut_reg3_n06_p1', 'grid2x3', True): "261b87ae97c4748f20fc0572dd99866248b27efc5e8ab2da246b8aba87ef7474",
    ('qaoa_maxcut_reg3_n06_p1', 'xtree6', False): "779326b5af8b7d00afcef52d1a43bbfc7e433cb7e9c4350d9e7569f7c9a28980",
    ('qaoa_maxcut_reg3_n06_p1', 'xtree6', True): "bae2b27238a63d6d18a3d0822ac71a2fccbde297995bc59067e055ff97cff0e6",
    ('qaoa_maxcut_reg3_n08_p1', 'grid2x4', False): "2f1bec022f5794fef4b052c8711a6fcb1db69b655390bc8af8b1ef7afcb2f37d",
    ('qaoa_maxcut_reg3_n08_p1', 'grid2x4', True): "cccf18d39d3ed991153b0b6023b2bac5208c8953218862d063726d54efc98301",
    ('qaoa_maxcut_reg3_n08_p1', 'xtree8', False): "cf51a5f43309903b13ec6a2624f2dcdf1aa6c492b50120464eff4c5096793b86",
    ('qaoa_maxcut_reg3_n08_p1', 'xtree8', True): "6f09f5edf24ea0e2f85794ffd56d4e5d3e4e00ae1abd618781808fdbf88f9e07",
    ('qaoa_maxcut_reg3_n10_p1', 'grid3x4', False): "13980bcf4ea4800242ee30de8fa622ae46af1690755d3fcdcfa07b513536d884",
    ('qaoa_maxcut_reg3_n10_p1', 'grid3x4', True): "36b574e1585e5b9ada25936b4639d413c7d5d35505d9f6f1639891ca2d123584",
    ('qaoa_maxcut_reg3_n10_p1', 'xtree10', False): "4b3dbfa6fdd5824418426ddeef2d507ab706b564532789de45528b9a25f78911",
    ('qaoa_maxcut_reg3_n10_p1', 'xtree10', True): "b19f3c22ec160393dda85585e2c8917152af55c7fbff9143f169050bf474ff65",
    ('qaoa_maxcut_reg3_n12_p1', 'grid3x4', False): "f92e08141f7ce6256307dead399ad34fd1120fa2f2abc1426e0f4006cbe68bc9",
    ('qaoa_maxcut_reg3_n12_p1', 'grid3x4', True): "bb28b1cc58ae8a20a1433e4576ac92aa06d586433e0f4628d33dc810f0a03983",
    ('qaoa_maxcut_reg3_n12_p1', 'xtree12', False): "8fedf099e83f1ade4d6f01f9e488730dc2edc11305fa5bedc990f9d288e34836",
    ('qaoa_maxcut_reg3_n12_p1', 'xtree12', True): "5d5bc486cdd04b139b29fdec7a76db91d0ffe1a5c6af09d7712f2b2f36665032",
}


def test_sabre_corpus_pins_cover_the_corpus():
    expected = {
        (name, device, commute)
        for name, circuit in load_corpus(CORPUS_DIR)
        for device in corpus_devices(circuit.num_qubits)
        for commute in (False, True)
    }
    assert set(SABRE_CORPUS_QASM_SHA256) == expected


@pytest.mark.parametrize(
    "name,device,commute", sorted(SABRE_CORPUS_QASM_SHA256), ids=lambda value: str(value)
)
def test_sabre_corpus_routed_qasm(name, device, commute):
    circuit = from_qasm((CORPUS_DIR / f"{name}.qasm").read_text())
    routed = get_compiler("sabre").compile_circuit(
        circuit, get_device(device), commute=commute
    ).circuit
    digest = hashlib.sha256(to_qasm(routed).encode()).hexdigest()
    assert digest == SABRE_CORPUS_QASM_SHA256[name, device, commute]
