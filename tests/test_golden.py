"""Golden digests: every preset's artifacts and every fit, pinned.

Each bundled scenario runs with its agents and without them, and each
edge scenario below (paths the presets never take) runs once; the
sha256 of `trace.csv`, `tickets.jsonl`, `summary.json` and
`scenario.json` (as `sim --out` writes them, the scenario after the
run), and of fixed renderings of the run's triggers, ticket closures
and per-tick records (ledger, deliveries by kind, and every node's
attempted and suppressed frames, which no artifact carries) must match
the tables below, and `trace.csv` must equal the reference formatter's
output.  Each fit input below (the bundled packet traces, the
calibration profile at every preset's capacity, and seeded rises that
together take every branch of the least-squares solver) has the sha256
of its `FitResult`, taken over `float.hex` of every field.  A refactor
must leave every digest unchanged.  Only an intentional change of
behaviour may update the tables, and the change that does so must say
why.

To print the current tables:

    PYTHONPATH=src python -m tests.test_golden
"""

from __future__ import annotations

import builtins
import hashlib
import math
import random
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

from stormctl import tracefile
from stormctl.agents import AgentConfig, Policy, ThresholdDb
from stormctl.datasets import PACKET_TRACES, load_trace
from stormctl.growth import FitResult, eval_ptr, fit_model, make_params
from stormctl.simulation import (
    Injector,
    NormalBroadcastProfile,
    Scenario,
    SimTrace,
    preset,
    run,
    saturation_cap,
    scenario_presets,
)

from .oracles import channel_csv, reference_channel_csv

GOLDEN = {
    ('normal', True): {
        'closed': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'records': '44e3e05a97d4e05a111d6c3e3c937996751dd2c0b38caedf4655b37a592d64ec',
        'scenario.json': 'fceb23330b8b95d8fa30d4c5ce15c260843f9fff8d808db499175b8320e0a17e',
        'summary.json': 'ca68b247c472c68bd8ac320e05cf8a61c23ae38501750fd02eb14e3782cad4a1',
        'tickets.jsonl': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'trace.csv': 'e1a126e39ab717c17715af338903a7e42bcbdf2ffe163dce9b8ce680858433aa',
        'triggers': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    },
    ('normal', False): {
        'closed': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'records': '44e3e05a97d4e05a111d6c3e3c937996751dd2c0b38caedf4655b37a592d64ec',
        'scenario.json': '87468f951aa08d3fe105715561913bc08767135f902f5b5633ff241454f3be25',
        'summary.json': 'ca68b247c472c68bd8ac320e05cf8a61c23ae38501750fd02eb14e3782cad4a1',
        'tickets.jsonl': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'trace.csv': 'e1a126e39ab717c17715af338903a7e42bcbdf2ffe163dce9b8ce680858433aa',
        'triggers': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    },
    ('loop-storm', True): {
        'closed': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'records': '1d761fa84b2f7054ff843a17a7cece7d0702b87735086dbd5050b72af2372c18',
        'scenario.json': '81078e0aa1fa2362542a0bb1c13ee698e1fc86256d3a4e5a0534eacc0c2a04e0',
        'summary.json': '86b16c7afbfdde53984544410ec7fce8fe0d5c8b724f280568acf6bb50a554b8',
        'tickets.jsonl': '2f9777c8a5e564441401cb06bf280ab12f50692ec6f72f6ec4a102d3a4125753',
        'trace.csv': '8c89e0ee5c7ea7a961aded25cb24691ab9b9f7d82eb13f016b5d65a991becd4d',
        'triggers': '43f261870ee32e14138742da71786944e5a2c109e8668cefaefd24e48d427320',
    },
    ('loop-storm', False): {
        'closed': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'records': 'b2acb6b6ec16e19eda15508a0bbf2faaa40388b2b38750df254c7b5a7a40b895',
        'scenario.json': '8845fd1ac1285878a070d77827b9414adace6c0abfa97b3072b37d9e424f485b',
        'summary.json': 'ad33282e86d24545b467361fff40303ca31cec91b8bc82cded00f7194dc358a6',
        'tickets.jsonl': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'trace.csv': '4002329c012ef98bf7968c231688941a384881d54f29602879aed4a6660b6b88',
        'triggers': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    },
    ('smurf', True): {
        'closed': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'records': '4e3ea4bc30ad0ac3f1a65a8b2f81b6a60d9309700107ac649928cb13c759219c',
        'scenario.json': 'f24af7174de6df5b2af63627596fe6e88bd550a7dfde783f7155a226a8b9d507',
        'summary.json': 'b03544495127f35b02fd662aa38c5f55f05c9684f8394893cd79ac9c12fcb4c7',
        'tickets.jsonl': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'trace.csv': 'ecfbe0b094a14921e7227d55d3aa5a24bf44183813efee9762f4d037633fbd59',
        'triggers': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    },
    ('smurf', False): {
        'closed': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'records': '4e3ea4bc30ad0ac3f1a65a8b2f81b6a60d9309700107ac649928cb13c759219c',
        'scenario.json': 'f24af7174de6df5b2af63627596fe6e88bd550a7dfde783f7155a226a8b9d507',
        'summary.json': 'b03544495127f35b02fd662aa38c5f55f05c9684f8394893cd79ac9c12fcb4c7',
        'tickets.jsonl': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'trace.csv': 'ecfbe0b094a14921e7227d55d3aa5a24bf44183813efee9762f4d037633fbd59',
        'triggers': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    },
    ('faulty-nic', True): {
        'closed': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'records': '380a5a2fc0e339fd492e171624219848c51e9a66043d4bfa53feae101b510a7d',
        'scenario.json': '6fdaf487d881ec2298f00e8d14a965ceac4780c4e65c7d36649bd2203a355102',
        'summary.json': '38e85bc7f171dc97e9993c03255cc01e1d7534d040c1d228fa2cf3cdfc0520dc',
        'tickets.jsonl': '3bd775964f101fd688954ba7f3b70b8d90abbf2abb3ea3be62a92f5476b6a54d',
        'trace.csv': 'd9e5cd446c22877a7da167a6413593fb680211e9940e5607d2c7ada9412081c0',
        'triggers': 'dc218e0bc9e3787e0c3f93b9da66fac6b9b64b0e2446011e095ef1726f2539d8',
    },
    ('faulty-nic', False): {
        'closed': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'records': '380a5a2fc0e339fd492e171624219848c51e9a66043d4bfa53feae101b510a7d',
        'scenario.json': '87b179f175b3007b41d19296752fd20b602a27de3229ee68a6a5c789beb1eebd',
        'summary.json': '44d39d33fc91abe76fbfaf048dc98f89e344fd31cd7e4e99351e70798e6234b8',
        'tickets.jsonl': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'trace.csv': 'd9e5cd446c22877a7da167a6413593fb680211e9940e5607d2c7ada9412081c0',
        'triggers': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    },
    ('table5-control', True): {
        'closed': '019e81b11cfc768f9d48364750133ea0786a91edaa67456a3f9e166138fad331',
        'records': 'aa2080c68f5d2294020a2481258420db63322576d45672351da46bec984a4eb5',
        'scenario.json': '12d5db8897a8696d8d695af2998bec057e43be5c70ab4f6801e2666319a9c505',
        'summary.json': '1ffa8df0053e1c22afab40be3266f85bcd48b6d1bc1cbc3d58bc3cc911dbcfdb',
        'tickets.jsonl': '5aa207842861cd7c8a7f72cf08a2182e387eb8e3e8e0eaf2f7506365904f0839',
        'trace.csv': 'd465838e77aa3c4fbb33733571dcb45e9f8f7d0e4cdf3e15da11d377515c1346',
        'triggers': '4d9ed6d2506cdeaf718b6935bafea1e91afe22d53c01a91a773f473d82530849',
    },
    ('table5-control', False): {
        'closed': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'records': '9da447142a4e25f76027336d9c6e7089f2f746c2f1c0564078b1932e9e33acc1',
        'scenario.json': 'ba542ad48a1130bb4c80d0719b73c7879594e9ded2263cd9536503161dd0f417',
        'summary.json': '0640a1fbb1d6078c8d37cc9391f137a844cb8ebcf61857bc95ee41f97e7c0a54',
        'tickets.jsonl': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'trace.csv': '4adb7aa9adc2fd6270031568f1432db3020006d9c11842dc46202ad56747affb',
        'triggers': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    },
}

EDGE_GOLDEN = {
    'detect-only-budget': {
        'closed': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'records': '3d9100a9d3a41f35969496fdefedf8ba8daa56b026efd39c4de7e6d741da0eb0',
        'scenario.json': 'b6b4356fc371e90fbd8be5622bb350aad539725638588e2df366beed1c494e64',
        'summary.json': 'adebb4f76deeb6562ce3a79b46f81207c31d0907ff9a5f94fda89df2284a4422',
        'tickets.jsonl': '0885e03ed0ca24ea44087e55b87cb6a68be1b14def108bcc5f1b8b97ebaadd37',
        'trace.csv': '2150eab8d6e74e225213ab0079dbfef1c4cab946994a455fdeeca15b06caf3c4',
        'triggers': '3fec40d94fea3a14c837b21a989e370e607f2f46f6d5e5375c63d9e1f1a71cdc',
    },
    'table5-detect-only': {
        'closed': '83a4ef507cfa88bd82e7e70b1e8a82f44763d38a5af46e03b324ff652b8a3bc4',
        'records': '9da447142a4e25f76027336d9c6e7089f2f746c2f1c0564078b1932e9e33acc1',
        'scenario.json': 'a935f03de94657673e90f3dbcad4eaec56320debb66d9441bd3b6cfa0f979ec8',
        'summary.json': '3b0d93cf3aacd36bb00f0cd2b4fd850e69adfa36adb3e37e7b7ee50f916b923e',
        'tickets.jsonl': '7390ac968136864d65db388d24c23a647daf7505a357349a8af8184cbf8dd456',
        'trace.csv': '4adb7aa9adc2fd6270031568f1432db3020006d9c11842dc46202ad56747affb',
        'triggers': '5fecf7ab45b4c9fc263effd381d4ef6fcf4d456c8c3d15ff99d905a32077b2f8',
    },
    'bandwidth-policy': {
        'closed': '7780903082b71aa551d1f2e378ab0c73e7123706f965c581e4fe88625d09cff2',
        'records': '3f690f3bf3a8cf7b0a509e5a2e7aebfdf80f5bdc45d3b3f34572b9f121fd3f75',
        'scenario.json': 'e03862baf1e1ff0baf5a3727ef1cf21a40535289207af8b981f96b4d1c4b7fd0',
        'summary.json': '70ed3dadeb9e17a9be5929b35bf5fa731a7b6e8a7c6e58b2b658c0c721988c64',
        'tickets.jsonl': '0eb92e0c019d94bc3c740e276e3d5824b6df41a0f077d955a8551704d92243fa',
        'trace.csv': '76df4487d7b9114c9c63fc1bcac90b4eee2bf1e95845fea2b264f1e99841d651',
        'triggers': '1df2f451d79eae990b8c06ae39e395b62fb0ded30ec2256b73547d4087771716',
    },
    'capacity-cut-10g': {
        'closed': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'records': 'e2ffd20562d471a6d4da62fcee9724d36c88ba3a61a565d429860db83ac8c000',
        'scenario.json': 'a7eac03687f292914aa987f3072187f7e31c3919d9573f5a8d4d2349f939a623',
        'summary.json': '3826ea712ac3e45b45d9dc14d8735efd7f3343b39f0bf57b6beb80a483780d4c',
        'tickets.jsonl': '601dfca3a2658f12c0de79c6ef79650f6ad7328be23afc643407d781e0cd8289',
        'trace.csv': 'd1748ca0875b359b59f5dc041195dbe6461107813d41f5ad93263958ed65afda',
        'triggers': '08ec6e652b1b705130793d4c9926a4d6cc5611f0fd58fcbca89edb712fb763f6',
    },
    'smurf-and-loop': {
        'closed': '45a77d8cbbd20361288dcea8537097a36e305e9c136efe21def6b7fd90c05b26',
        'records': '110652eaded22756656ab4168204c260577fc795dae71e833ff0ccd0e57672da',
        'scenario.json': 'c5ed489bca549e1df27541d5ca221d43b6b0c30a8aee8be0684a892fd2d3f0c6',
        'summary.json': '232ef72efac9aa99cbff4be697a4369548ddca04087f50fcbab217b1c0ddd8bc',
        'tickets.jsonl': '72ac65aa8a9ebb01a780a4c103c26b326f566ff35e50662d82c5075c37a3ac81',
        'trace.csv': '1910987103fedb9c56ef292a37c35111fca4b25b66257202cc30ed5befd4ceea',
        'triggers': 'bbcff7f1f9c354137cb9daef03dd6a575efd9e8d530e6604657bb50ef649511e',
    },
    'ipid-repeats-2': {
        'closed': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'records': '0f13b9d6fbb7df0ff9e70f5016ca2d7e916ddffece34c486dee2f4b9b7396a72',
        'scenario.json': '5ed08e8303e32f2a29dcbe9fa1c24b99590dfcd6f867e6ad8db5e43b6ddc3947',
        'summary.json': 'b47bf88a35950c7c677310ea5f7097513b159ea24b2cd3db6e96115c0bd7ed6e',
        'tickets.jsonl': '21178cd2ecb3150bf46a8690373c8c0bc3cff54e1df6d8ca78ae4727c8da1a3a',
        'trace.csv': '52eee29260df51714083338cea3b3208c680b89111a907d13e917e189963ba65',
        'triggers': '2f04ffe79792d0650100e7ea882e3ce3f91ace34a27bc06e627c42fc1c2677a6',
    },
    'ipid-repeats-5': {
        'closed': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'records': '0f13b9d6fbb7df0ff9e70f5016ca2d7e916ddffece34c486dee2f4b9b7396a72',
        'scenario.json': '96240354048efc0562861e3f4cf2771fd9833e18a62fee00a6378058f34e225f',
        'summary.json': '7bea3e8686d7f9423acd7c07c71720076b948f45f60d9e945bc5317cbe5d43e4',
        'tickets.jsonl': '27e529d2b49f1344efa969b0fa0368f470130d9d5dc3257fe1ffbc9f7afc8ea7',
        'trace.csv': '02b47e573b52b4cc975abb5812d97bb56553afad2c54056172ab5d51d552ddbb',
        'triggers': '177b8fc5a3d4a32e125b8cc61cbb9701308571f6429b5eb987170c079292fe51',
    },
    'factor-1-loop': {
        'closed': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'records': 'c1cde00114b5eebaf8eb7aac8b837eaaf0888dbc1416354d59b8ec7c25ab1503',
        'scenario.json': '6befd931fbf617f2370c2ef636e9cc0375d466e96b303531ed6eb3536e6251d5',
        'summary.json': '635bf7cf761b8fccd2bfa3d1da0720d9e7b19ac0cffa2ae4ecdba0db6f7e8ef7',
        'tickets.jsonl': '1fc9739c4fa5cb98cd4021a3780fd211fff6a3f53d6fb12f32d070a0f6f3a9c4',
        'trace.csv': '2ea4ecc25535c41283760dbb8cb3e376f41deaad3b232e87991713b355e5644f',
        'triggers': '2bef24f059e470acfb133a18b3b9c363b575941e9026748741df789a477da5d4',
    },
    'wide-loop-packet': {
        'closed': '0783b08711e5a221ca3ea736e42de1de4042648f996f2b10fdc2ba88f3fd12c1',
        'records': '8b4f64b8795e863c6c6974769406a94326cc801e6fa902aa655c21a5d3356aa7',
        'scenario.json': '8c7d848b9fe932083d94a06789abee2490ebe4dbd125bf23dbb63496181cd5fc',
        'summary.json': 'f3f3b6ed472fc206a6e5263bd55372358e386e16914ef1cfd01422f398a7f224',
        'tickets.jsonl': '50e6e5bc7a4ccd9941fee4bc4f3128786a7c32698e9eb5617745151565af7240',
        'trace.csv': '386b1a0687ee958103c07fd303a80cc5fd2d362b674e8baf3cfd0626c588f7ec',
        'triggers': '9db0d3deb826239d2a11b768860647b6dfb527b387a190b5d52880854997fc12',
    },
    'wide-faulty-nic-bandwidth': {
        'closed': '830a6eead9f22258faf91346076266dca5b59834b18b3d9c25e5ddb31457aa0a',
        'records': '8a6b6557ebc2f22c0b4e1c43f8f37b408ccab33a2340406f5bc51f0b5631b424',
        'scenario.json': '276739acddd17e586d41a7b6abd01f7164495d3118512b52238d45572f212f69',
        'summary.json': '415e782309bfd0623c313a6cba67592753fd062081fb7dd884e2c4e2f50058cd',
        'tickets.jsonl': 'e33954f4fdde515c7fa44bdd53283f846d4b3f0233622c09cc4e71aedf0606b7',
        'trace.csv': '3d7bf33a4cecdd6406d83c9131339274bdfc2482009a18b541a82548e122dced',
        'triggers': '8f05984a77ba48a0dfc3dc26e07700eacaf1808b5e3a8d8ef1249de57d38ce1e',
    },
    'dense-packet-block': {
        'closed': 'c833fef62fd13ab2323c97c7664307e46ad8c7d5eab90cfce1fe8c8090a64dd9',
        'records': '1c446dc63bcdea506e26846a969cacd611ae05142e5e69e5daed5e43d542b8c0',
        'scenario.json': '8fb832027671701bdc9f3e5f9b2a0bd660da7eaa73c3e546acf3889dd409ad87',
        'summary.json': '4c49e8ec3eba5d7ed0008a0e1d0fece7505f2e906d734a5737accf24d54865b3',
        'tickets.jsonl': 'b459bf673cbb5cff0e724e8f73e1722aa3c228f9f484828e43499dc1468d4bfe',
        'trace.csv': 'e118225a41aa2c62259c5153aad0850129847499cf1302bf095ff4f5c112979c',
        'triggers': '4e3d5cec47738c71843af9a9f285cf84efae2e705204d729981a32550d51542d',
    },
    'dense-bandwidth-block': {
        'closed': 'b03a770189bf7ac830ec73a0b9fc5bc52dcefd43ae82770175ef0337b7430abb',
        'records': 'f188f9a209e2dc5b9ba0fbacc2d2a485738227e7a738d7184ceb025e132255b2',
        'scenario.json': '3234cf9023884165e99a6225efe2287374f37b7e98215fa6147ca1cab1f2922c',
        'summary.json': '04ca5301fbc9eddbd52cd5dc56c558b3709d51bde0e9acea5f1625ac77e1b10c',
        'tickets.jsonl': '89388c08dca8139eb096014e591c33f4ad0017d01bd4762cf75e550d57ba99d2',
        'trace.csv': 'acc5b9b8f81780d046dfd8fe492ad58f4597622ef33de1e1b92e73dddd113811',
        'triggers': 'cc3e16155fe3d85f417e6d8981302ffec796384796c7757c98d533c5fc340949',
    },
    'dense-budget-enforce': {
        'closed': '95e9ec5239cd9d57ad9be62aac618394dde7eb5289ab4c4ae4bad8a09b662b51',
        'records': '3012f21fa4f12928a018c537738b484caebdf1a7c7d4e86f78826785c1823f65',
        'scenario.json': '08c48cc2b1c4a433aef5e452a12d0e7bc5a775d66f367d1b66197c04cb251a76',
        'summary.json': '8500157ade5decd6f24baef8be24075af3ec8b660bce2942185253f830b8fdb0',
        'tickets.jsonl': '2e1483d17b5864cd9a641014b4d9e3e0e6ecba154fc01c09e40a1d356a16df13',
        'trace.csv': '29afe7a5a3ec73964c0189ad444a561a3dcb5f96d0ed33db9c674e1a943b73d1',
        'triggers': '11eb66e2e645a06ff7f8d0ed27c4b4399c5e7640cea8cbe0e5e2fa1b156ccbc9',
    },
    'dense-budget-detect': {
        'closed': 'fada4a3dabcdda7010e4ef8906b4fc8d4871c14d749232b22e543a989310b4d7',
        'records': 'd39b149517e39079fbf2344d4df92354737a7126c2e5b0232fba5fc376a589e3',
        'scenario.json': '9ca49e295a52e53fca662490c14a1c8502ddcceaf9f7d05d17d220cd11bead7b',
        'summary.json': 'c53f406cce071bc223fd1473a2c98cf7a96cf7bbd167930814603cd42db3b71a',
        'tickets.jsonl': '423d3125bc7be71ffcec2a70ac20703bd178dca4286fedcfa0fcaa9660b34a09',
        'trace.csv': '186545ed2b9d583feaed24a0cb42395454e6d5bfd84dd7561d5063c8aff1b318',
        'triggers': '3765c3f7952e7324abf4c09ffe5e723994312fc9303870db49764d33d0110e07',
    },
    'dense-capacity-cut': {
        'closed': 'e11e1daf2ceda404e53167b4705becebf032ed15002d4007704694c0edadaa4b',
        'records': '80e1e1884904b951e438ef75401fdce58f3167c64ccd05fa137bfbbe27ecdfd0',
        'scenario.json': '975bc509e99e2f54bc24e27b670cf78c2818da683ab25d434827034ba737e7b8',
        'summary.json': 'bbd3c7b2d1740511f0830ce044e66b9a12bf9011c59f5487a2d56cad91520aff',
        'tickets.jsonl': '408811e69dc974b1e79e99e2bd0b0b36e43980b631e1a77dcbdec18faedf70a6',
        'trace.csv': '2035f82752357b78a1d39eb0fa6e8888704295f775301acb96a3b117e287f573',
        'triggers': 'd8a510c24cd41f2c72b7fa7d63a133815667384ea4b1ffb6b377a19c07e1078d',
    },
    'dense-fifth-ms-window': {
        'closed': '3dadf4883e5d5b8721ecd920b213171ec28c01f122cbfadadab050554900b6cf',
        'records': '1bac7641736f2156cab6dd849868f80b683d795c2f443c1401b50e0260b4fa35',
        'scenario.json': '828d6bb20a58b808835e2c1dc4c66972608a79e4b5826c961819f19cf19ab598',
        'summary.json': '74ad67118c3081a31f8d92266ca880c3099455d0ed0fe20b8c616e948cf16198',
        'tickets.jsonl': '202dbafcd270292947b1b03a4ce52d4ff5827b7dbdfbf5777ea8d20e584d3a03',
        'trace.csv': '612b4fe3027c6b4f3648f5a24eccd591a1954a210057301272c0cc18a4b3c2d7',
        'triggers': '2803e7a7b39bf888320dab41366cc4c8af0d43807840422a5580455dd2b5b2e0',
    },
    'ipid-span-float-edge': {
        'closed': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'records': 'e574049f4f2ab903b26c51057e859b77a830c5d47435ce8b993e63ff2228621a',
        'scenario.json': 'ad6fe3509547ddfff7d13407343c3dc7a9cfa2298ea7b4ed73161cc84e7b8e09',
        'summary.json': 'a5b0ffeb9172367d9081b162b1b6f50624fd88fb64283156906c9a09d39bfa99',
        'tickets.jsonl': '417806c82d8789ebecec54493130e546384d2f1b30dbf758e968a702571b49ab',
        'trace.csv': 'd912f922022f257de6df04604eabcaa54a724f22d8d1b36618a266f772984710',
        'triggers': '8b7b2387a0d62b3f147ff6ca8bc4815070c66d640d34fd8887ae8e3a8e43600b',
    },
    'ipid-evict-before-observe': {
        'closed': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'records': 'e5e51d4dd0740c9cd4fea75c8d9eff3fd42487ec4e5a6c9cf88a055cc2fc06ee',
        'scenario.json': '739b0f4d6173ce4d2c553b190eb6cdc799cf9919de3a607c59efd4d03908fcf0',
        'summary.json': 'fadf5846f975ae713611a426bcd3a54b0ece2d36a8ac99e59ea1fd07241831b2',
        'tickets.jsonl': 'fc034b980635ebc695e1b208a32475ae92f0d8257165b4d962261c9145bdbf89',
        'trace.csv': 'dee421464ae3d2329dbb998a4ff6ea1199c491d3c4b64c634267ab10198c67fd',
        'triggers': 'e0985f1609ae3f25e88d70d2ff2fae56be802eca0297526f8a763e7422a9d511',
    },
}

FIT_GOLDEN = {
    'table1': '8e2ebaf992b0d40f64005d8c13b3dc8acb0f1335f142319670331f889dc312fa',
    'table3': '8e2ebaf992b0d40f64005d8c13b3dc8acb0f1335f142319670331f889dc312fa',
    'table4': '46437945a5513314ceafabc102fffe0f737ce4a67d69c98f1a471a3133acb0de',
    'ideal-profile-2': 'abe18dde61ab9bfef319a0ce518af85bd72248bd9a328735c021f47507220227',
    'ideal-profile-238': '1828dcb22766e96c933a0a09edda6847307a87946f80b7fb63922b432dc30c31',
    'ideal-profile-5963': '463ed1820e80b6f49e7be4260e824aa6452ad39d9028a2d1be6800570669aa81',
    'interior-growth-curve': '653644a624b45c2dbb5f5ff6514763e038f80cee783d6d469f81dbcaef904b63',
    'interior-linear': '36a6c4bb2924fe79b76b424f69a50be78ce059fab5a042a096bcfd083b4550d2',
    'ps0-concave': '1134a2425e8b4244da0d5bcac49e3ee290a4e4277d419d95b1eb6fe8d587fb4a',
    'pe0-convex': '6082ac23eead712e98f44a726eeae695aecbee2e99cbd9bc7430dc0bec850249',
    'det0-short-span': '8054ac013069cf138c5f846ca0fab4a49963bd8f7629fd4e97984fe8a6811885',
    'det0-short-span-ps0': '038d972d60adea73cf663afe3f8e296e88f400a85056dbd386ad7faa0074c756',
    'zero-fallback-underflow': '4bc7bcf582b980c6b8342128ea356b5524355d71480bc6803e4cb1bdad517eab',
}


def _ipid_scenario(repeats: int) -> Scenario:
    # the factor-1 loop shows its IPID 4 times per 1 ms: enough for 2
    # repeats, not for 5; the later factor-2 loop floods the window
    return Scenario(
        name=f"ipid-repeats-{repeats}", node_count=3, tick=1.0, duration=15.0,
        seed=9, generator=NormalBroadcastProfile(),
        injectors=(
            Injector(kind="loop", start_t=2.0, origin_node=2,
                     pass_interval=0.3, factor=1),
            Injector(kind="loop", start_t=10.0, end_t=13.0, origin_node=0),
        ),
        agents=AgentConfig(policy=None, thresholds=ThresholdDb(
            ipid_min_repeats=repeats, ipid_window_ms=1.0)))


def edge_scenarios() -> dict[str, Scenario]:
    """Small scenarios for paths no preset takes; built fresh per call."""
    table5 = preset("table5-control")
    scenarios = [
        # detect-only byte budget: a node breaks it once per window, and
        # its frames from the breaking one on are delivered or capped as
        # if it had none
        Scenario(
            name="detect-only-budget", node_count=3, link_rate=100e6,
            tick=1.0, duration=15.0, seed=5,
            generator=NormalBroadcastProfile(),
            injectors=(Injector(kind="loop", start_t=1.0, origin_node=0,
                                pass_interval=0.1),),
            agents=AgentConfig(policy=None, suppression_window=5.0,
                               thresholds=ThresholdDb(byte_threshold_mb=0.02))),
        # the Table 5 control run under detect-only agents: the one
        # breach per window leaves the loop's frames to the link
        replace(table5, name="table5-detect-only",
                agents=replace(table5.agents, policy=None)),
        # broadcast-only blocking of a node that also sends unicast
        Scenario(
            name="bandwidth-policy", node_count=4, tick=1.0, duration=20.0,
            seed=11, generator=NormalBroadcastProfile(),
            injectors=(Injector(kind="loop", start_t=5.0, origin_node=1),),
            agents=AgentConfig(policy=Policy.BANDWIDTH_BASED,
                               suppression_window=4.0)),
        # fresh- and reused-IPID loops overrunning 10 Gb/s within one step
        Scenario(
            name="capacity-cut-10g", node_count=3, link_rate=10e9, tick=0.1,
            duration=2.0, seed=2, frame_size=64,
            generator=NormalBroadcastProfile(),
            injectors=(
                Injector(kind="loop", start_t=0.3, origin_node=0,
                         pass_interval=0.01, factor=3, reuse_ipid=False),
                Injector(kind="loop", start_t=0.55, end_t=1.5, origin_node=2,
                         pass_interval=0.02, factor=2),
            ),
            agents=AgentConfig(sample_period=0.1, policy=None)),
        Scenario(
            name="smurf-and-loop", node_count=5, tick=1.0, duration=20.0,
            seed=4, generator=NormalBroadcastProfile(),
            injectors=(
                Injector(kind="smurf", start_t=2.0, end_t=15.0, origin_node=0,
                         rate=3.0),
                Injector(kind="loop", start_t=6.0, origin_node=3,
                         pass_interval=0.25, reuse_ipid=False),
            ),
            agents=AgentConfig(suppression_window=3.0)),
        _ipid_scenario(2),
        _ipid_scenario(5),
        Scenario(
            name="factor-1-loop", node_count=2, link_rate=100e6, tick=1.0,
            duration=20.0, seed=1, generator=NormalBroadcastProfile(),
            injectors=(Injector(kind="loop", start_t=3.0, origin_node=1,
                                pass_interval=0.1, factor=1),),
            agents=AgentConfig(policy=None)),
        # wide, mostly idle domains: about 100 of 300 nodes send per tick
        Scenario(
            name="wide-loop-packet", node_count=300, tick=1.0, duration=20.0,
            seed=13, generator=NormalBroadcastProfile(),
            injectors=(Injector(kind="loop", start_t=6.0, origin_node=211),),
            agents=AgentConfig(suppression_window=5.0)),
        # at most 5 of 300 nodes send per tick; two faulty NICs fill and
        # drain their bandwidth windows at different times
        Scenario(
            name="wide-faulty-nic-bandwidth", node_count=300,
            link_rate=100e6, tick=1.0, duration=40.0, seed=17,
            generator=NormalBroadcastProfile(unicast_fraction=0.10),
            injectors=(
                Injector(kind="faulty_nic", start_t=4.0, end_t=22.0,
                         origin_node=157, rate=3.0),
                Injector(kind="faulty_nic", start_t=10.0, end_t=28.0,
                         origin_node=42, rate=0.5),
            ),
            agents=AgentConfig(policy=Policy.BANDWIDTH_BASED,
                               suppression_window=5.0,
                               thresholds=ThresholdDb(nbw_permissible=1200.0))),
        *_dense_generator_scenarios(),
        # A reused IPID seen at 28.02, 78.02 and 128.02 ms spans
        # 100.00000000000001 ms in floats but 10000 steps, the window's own
        # length, so the 3-in-100 ms rule judges it a loop: one IPID_LOOP
        # trigger and a ticket at the 128 ms tick.
        Scenario(
            name="ipid-span-float-edge", node_count=2, tick=1.0,
            duration=140.0, seed=1,
            injectors=(Injector(kind="loop", start_t=28.02, origin_node=1,
                                pass_interval=50.0, factor=1),),
            agents=AgentConfig(policy=Policy.PACKET_BASED)),
        # Seen at 30.5, 80.45 and 130.4 ms: the tick at 130 ms is judged an
        # IPID loop, and `observe` still scans the 30.5 ms sighting, which
        # is older than the window ending at the tick's end, so an IPID_LOOP
        # trigger and a ticket follow at 130 ms.
        Scenario(
            name="ipid-evict-before-observe", node_count=2, tick=1.0,
            duration=140.0, seed=1,
            injectors=(Injector(kind="loop", start_t=30.5, origin_node=1,
                                pass_interval=49.95, factor=1),),
            agents=AgentConfig(policy=Policy.PACKET_BASED)),
    ]
    return {sc.name: sc for sc in scenarios}


def _dense_generator_scenarios() -> list[Scenario]:
    """10 Gb/s, 64 B frames, 0.1 ms ticks: the background generator puts
    tens of frames on every step, its broadcasts and its unicasts each
    taking the nodes in turn."""
    def dense(name: str, node_count: int, seed: int, *,
              generator: NormalBroadcastProfile = NormalBroadcastProfile(
                  broadcast_peak_fraction=0.3),
              injectors: tuple = (), duration: float = 2.0,
              **agents) -> Scenario:
        return Scenario(
            name=name, node_count=node_count, link_rate=10e9, tick=0.1,
            duration=duration, seed=seed, frame_size=64, generator=generator,
            injectors=injectors,
            agents=AgentConfig(sample_period=0.1, **agents))

    loop = Injector(kind="loop", start_t=0.8, pass_interval=0.05)
    budget = ThresholdDb(byte_threshold_mb=0.01)
    return [
        # a loop gets its origin's port blocked: the steps around it carry
        # the blocked node's frames between everyone else's
        dense("dense-packet-block", 5, 21, duration=3.0,
              injectors=(replace(loop, origin_node=2),),
              suppression_window=0.5),
        dense("dense-bandwidth-block", 6, 22, duration=3.0,
              injectors=(replace(loop, origin_node=4),),
              suppression_window=0.5, policy=Policy.BANDWIDTH_BASED),
        # each node crosses a 10 kB budget within a step, part way through
        # the generator's broadcasts there
        dense("dense-budget-enforce", 4, 23, suppression_window=0.5,
              thresholds=budget),
        dense("dense-budget-detect", 4, 24,
              generator=NormalBroadcastProfile(broadcast_peak_fraction=0.3,
                                               unicast_fraction=0.8),
              suppression_window=0.5, policy=None, thresholds=budget),
        # offered load above capacity, so the link fills within a step,
        # while a faulty NIC's port is blocked
        dense("dense-capacity-cut", 5, 25,
              generator=NormalBroadcastProfile(unicast_fraction=0.9,
                                               broadcast_peak_fraction=0.5,
                                               jitter=0.2),
              injectors=(Injector(kind="faulty_nic", start_t=0.3,
                                  origin_node=3, rate=40.0),),
              suppression_window=0.3),
        # 0.2 ms windows, which floor(t / 0.2) misnumbered at edge steps
        # (0.6 ms fell in window 2): 3533 frames were suppressed, not 4950
        dense("dense-fifth-ms-window", 5, 1, duration=6.0,
              injectors=(replace(loop, origin_node=2),),
              suppression_window=0.2),
    ]


def seeded_rise(seed: int, dt: float, power: float,
                origin: bool = True) -> list[tuple[float, float]]:
    """Ten counts growing as k**power, k*dt ms apart, with +/-10% noise,
    rounded to whole packets."""
    rng = random.Random(f"fit-rise/{seed}")
    points = [(0.0, 0.0)] if origin else []
    for k in range(1, 11):
        noise = 1 + 0.2 * (rng.random() - 0.5)
        points.append((k * dt, float(round(1000 * k ** power * noise))))
    return points


def seeded_curve_rise(seed: int) -> list[tuple[float, float]]:
    """Twenty samples of a rising growth curve with +/-5% noise, rounded."""
    rng = random.Random(f"fit-curve/{seed}")
    p_start = rng.uniform(1000.0, 6000.0)
    params = make_params(p_start, rng.uniform(p_start, 12000.0),
                         rng.uniform(0.3, 1.2))
    return [(k * 0.1, float(round(eval_ptr(params, k * 0.1)
                                  * (1 + 0.05 * (2 * rng.random() - 1)))))
            for k in range(20)]


def fit_inputs() -> dict[str, list]:
    """Every fit input with a pinned digest, by name."""
    inputs = {name: load_trace(name) for name in sorted(PACKET_TRACES)}
    caps = sorted({saturation_cap(sc.link_rate, sc.tick, sc.frame_size)
                   for sc in scenario_presets().values()})
    for cap in caps:
        inputs[f"ideal-profile-{cap}"] = \
            NormalBroadcastProfile().ideal_profile(cap)
    # Between them the rises take every branch of the solver: the
    # interior solution, the Ps = 0 and Pe = 0 boundaries (each wins
    # its fit), det <= 0 (a 1e-7 ms spacing, where t*exp(m*t) is nearly
    # proportional to t for small m), and the (0, 0) fallback (t*t
    # underflows to 0, so neither boundary is defined).
    inputs.update({
        "interior-growth-curve": seeded_curve_rise(0),
        "interior-linear": seeded_rise(2, 0.1, 1),
        "ps0-concave": seeded_rise(0, 0.1, 0.5),
        "pe0-convex": seeded_rise(0, 0.1, 3, origin=False),
        "det0-short-span": seeded_rise(0, 1e-7, 3),
        "det0-short-span-ps0": seeded_rise(0, 1e-7, 1),
        "zero-fallback-underflow": seeded_rise(0, 1e-170, 1),
    })
    return inputs


def fit_digest(fit: FitResult) -> str:
    p = fit.params
    fields = (p.p_start, p.p_end, p.m, p.a, p.b, fit.rmse)
    return hashlib.sha256(" ".join(map(float.hex, fields)).encode()).hexdigest()


def render_triggers(trace: SimTrace) -> str:
    return "".join(
        f"{tr.cause.value} {tr.node} {tr.t!r} {tr.observed!r} "
        f"{tr.threshold!r}\n" for tr in trace.triggers)


def render_closed(trace: SimTrace) -> str:
    return "".join(
        f"{tk.ticket_id} {tk.node} {tk.t!r} {tk.cause.value} "
        f"{tk.observed!r} {tk.threshold!r} {when!r}\n"
        for tk, when in trace.closed)


def render_records(trace: SimTrace) -> str:
    lines = []
    for rec in trace.records:
        lines.append(f"{rec.t!r} {tuple(rec.ledger)} {rec.delivered_by_kind}")
        lines.extend(f"  {s.node} {s.attempted_bcast} {s.attempted_total} "
                     f"{s.suppressed}" for s in rec.samples)
    return "".join(line + "\n" for line in lines)


def digests(trace: SimTrace) -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        tracefile.write_channel_csv(trace, out / "trace.csv")
        tracefile.write_tickets(trace.tickets, out / "tickets.jsonl")
        tracefile.write_summary(trace.summary(), out / "summary.json")
        tracefile.write_scenario(trace.scenario, out / "scenario.json")
        blobs = {path.name: path.read_bytes() for path in out.iterdir()}
    blobs["triggers"] = render_triggers(trace).encode()
    blobs["closed"] = render_closed(trace).encode()
    blobs["records"] = render_records(trace).encode()
    return {key: hashlib.sha256(blob).hexdigest()
            for key, blob in sorted(blobs.items())}


def preset_run(case: tuple[str, bool]) -> SimTrace:
    name, agents = case
    return run(preset(name, agents=agents))


def edge_run(name: str) -> SimTrace:
    return run(edge_scenarios()[name])


CASES = [(name, agents) for name in scenario_presets()
         for agents in (True, False)]
EDGE_CASES = list(edge_scenarios())
FIT_CASES = list(fit_inputs())


@pytest.mark.parametrize("name,agents", CASES,
                         ids=[f"{n}-{'agents' if a else 'bare'}"
                              for n, a in CASES])
def test_artifacts_match_golden_digests(name, agents):
    trace = preset_run((name, agents))
    assert digests(trace) == GOLDEN[(name, agents)]
    assert channel_csv(trace) == reference_channel_csv(trace)


@pytest.mark.parametrize("name", EDGE_CASES)
def test_edge_scenarios_match_golden_digests(name):
    trace = edge_run(name)
    assert digests(trace) == EDGE_GOLDEN[name]
    assert channel_csv(trace) == reference_channel_csv(trace)


@pytest.mark.parametrize("name", FIT_CASES)
def test_fits_match_golden_digests(name):
    assert fit_digest(fit_model(fit_inputs()[name])) == FIT_GOLDEN[name]


_plain_sum = builtins.sum


def compensated_sum(iterable, /, start=0):
    """`sum` as Python 3.12+ takes it over floats: Neumaier-compensated,
    from the second item on.  Anything but a run of floats goes to the
    plain `sum`."""
    items = list(iterable)
    if not items or not all(type(x) is float for x in items):
        return _plain_sum(items, start)
    total, c = start + items[0], 0.0
    for x in items[1:]:
        t = total + x
        if abs(total) >= abs(x):
            c += (total - t) + x
        else:
            c += (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


def test_fit_bits_do_not_depend_on_how_sum_adds_floats(monkeypatch):
    # the fit and the calibration it feeds must give the pinned bits on
    # every Python: 3.12+ compensates `sum` over floats, 3.11 does not
    assert compensated_sum([0.1] * 10) == 1.0   # in order: 0.9999999999999999
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    moved = [name for name, points in fit_inputs().items()
             if fit_digest(fit_model(points)) != FIT_GOLDEN[name]]
    assert moved == []
    assert digests(edge_run("dense-capacity-cut")) == \
        EDGE_GOLDEN["dense-capacity-cut"]


def _print_table(title: str, cases, trace_of) -> None:
    print(f"{title} = {{")
    for case in cases:
        print(f"    {case!r}: {{")
        for key, value in digests(trace_of(case)).items():
            print(f"        {key!r}: {value!r},")
        print("    },")
    print("}")


if __name__ == "__main__":
    _print_table("GOLDEN", CASES, preset_run)
    print()
    _print_table("EDGE_GOLDEN", EDGE_CASES, edge_run)
    print()
    print("FIT_GOLDEN = {")
    for name, points in fit_inputs().items():
        print(f"    {name!r}: {fit_digest(fit_model(points))!r},")
    print("}")
