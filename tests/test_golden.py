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
        'closed': 'c4f79e5b13368886fd664a21d006f0f99af6bc4b9a78e3ef63b4e190d57e0726',
        'records': '3d9100a9d3a41f35969496fdefedf8ba8daa56b026efd39c4de7e6d741da0eb0',
        'scenario.json': 'b6b4356fc371e90fbd8be5622bb350aad539725638588e2df366beed1c494e64',
        'summary.json': 'bd3002850ad633608263f12e94aaeb3b887ec80eebfdbba4bdcd402d5f4e5c76',
        'tickets.jsonl': 'bf5246457e2b332efeee08afd267408f0ac171fcd74d059dcc578a4341bd9bf7',
        'trace.csv': '2150eab8d6e74e225213ab0079dbfef1c4cab946994a455fdeeca15b06caf3c4',
        'triggers': '3fec40d94fea3a14c837b21a989e370e607f2f46f6d5e5375c63d9e1f1a71cdc',
    },
    'table5-detect-only': {
        'closed': 'b36a1395427bc2769da1e236a2663e0c7c8683038997c39c86d7a2e161e7ac86',
        'records': '9da447142a4e25f76027336d9c6e7089f2f746c2f1c0564078b1932e9e33acc1',
        'scenario.json': 'a935f03de94657673e90f3dbcad4eaec56320debb66d9441bd3b6cfa0f979ec8',
        'summary.json': '6292c638ec06a1c785d3d2ed0bfd09c2f1fd0b40b3a5ff61b8a927255ec3eeae',
        'tickets.jsonl': 'aab4d0a6509d0f3fb4b702c3eba765e0e1dee0cd47f6776e53c2c501477dbb3a',
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
        'closed': 'b4dd1478d4ad891b19e63c816f5029198a6af2b850984bec99d919df599a4dcf',
        'records': 'a64d52f362d4370754ec7f329c3807fba565cebab37a5284d45809ace8ad07d9',
        'scenario.json': 'c5ed489bca549e1df27541d5ca221d43b6b0c30a8aee8be0684a892fd2d3f0c6',
        'summary.json': '9c88bf1aafe6dc07594718931a63bf024bc4f56ebaf0a2114eb8a567b67579cd',
        'tickets.jsonl': 'c590a56ec392ba240aab6a4520902c65580925a452be33e0d304bb68af6276a6',
        'trace.csv': '6b0e0c475e30a349c9957a4b07b20f77fe09783abb037c21fac887f76504cfe0',
        'triggers': '03ad140b34c2c444805ddaa5fa45d6c40ba560cff13129c59cd509ab1901aec3',
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
        'closed': '2a3fec759cc64543077985bb37f563dca99347d0379307db6fb79783fb74674d',
        'records': 'b10635f0a8db4d5cdfa46b9fd3b91bab9e43b7bc737eca1d4c6bbe4e81c48d75',
        'scenario.json': '276739acddd17e586d41a7b6abd01f7164495d3118512b52238d45572f212f69',
        'summary.json': 'db091850033ddc13c52f9e75cddd7fe715f7ffdd806d166b9d4429148dd69a3d',
        'tickets.jsonl': 'aecf7b3d1940b461e56f764eb3e50e90e2a3e6703eecedd3b1be5fa0318ddccb',
        'trace.csv': 'fe5099d023b42dcbec40d98269d2952ce4df8d03003f0f00c3ec8583a09b6c88',
        'triggers': '91ba1a10c7ca7408efbb798992cf80c48ad2590e270d9f8fbb2e32fc81627f0e',
    },
    'dense-packet-block': {
        'closed': '7b74c1f8412e253fdf34ffe3fc8ad2a482a9754b5750f684e4ab69cdfa0ad6e2',
        'records': '78932da6fa4b3b0ee4962c7b2cde3ab4a62882f5e02bc396e7111c659420ef96',
        'scenario.json': '8fb832027671701bdc9f3e5f9b2a0bd660da7eaa73c3e546acf3889dd409ad87',
        'summary.json': 'c7bf46a97b60f50aa5bf828c0a883f553b6b40a0514bed0d393521412735ef26',
        'tickets.jsonl': 'c202b6524d5942d8b31167678387c5677a819296e77a4ce3eaf48a35cd1da36e',
        'trace.csv': '52bf5cf3d3d3b5f8cac3a0c78749f8879b1f75d8960f98b20215db9ca4a5412e',
        'triggers': '9b25f49486bd2bc8012741f03d55ac666469c1d456efa1cf779fbaf0ffc7209f',
    },
    'dense-bandwidth-block': {
        'closed': '34f593656a6a2855bde665a0968bbee80361620fd958d44a1990ad0b8bca2647',
        'records': '270f105a7c8df73fd21b73417cb1459a338fdf079e45a9c26b9892c026a2f493',
        'scenario.json': '3234cf9023884165e99a6225efe2287374f37b7e98215fa6147ca1cab1f2922c',
        'summary.json': '7234e95c747dd6287c5a676d4996decf16c98938ecaa8466a3d5649083942222',
        'tickets.jsonl': 'a64c96f55731e1931c84e71e2bacb2550985135be6f370589ecfea4030f06b88',
        'trace.csv': '7da2e0214b036c683448e62a96b025e7dc2de0c2a20ab780e0983e2234743f34',
        'triggers': '9698e2db8a949f51cd9045fc91e98447c75b4f9361640a918f8fe01ecdb01844',
    },
    'dense-budget-enforce': {
        'closed': 'b6daae449b74289fe66584c897807b55408250aec6fb70623285891b1dfa354b',
        'records': 'f3c87fe14a83511f14f025bcfb31240b588765ca7ee7a0e6c80e3e6ed84ed162',
        'scenario.json': '08c48cc2b1c4a433aef5e452a12d0e7bc5a775d66f367d1b66197c04cb251a76',
        'summary.json': '87642159d591fa1c3c1f743c70b98bc5b1df9ef959a457227e4589600fd5fe49',
        'tickets.jsonl': 'a665a6a4ca2dd7af6f50c9fb7b1758942429ee26291758b2cb44269985f8590b',
        'trace.csv': '80688b5dba9e87ceabf9a4c814c7b6b2846ece826ed56c92f39f0c3033ddd69f',
        'triggers': 'fea028ed28f7e44f68f2f19b19dad3e1b9c614808af80ed217cc305a7c23edfd',
    },
    'dense-budget-detect': {
        'closed': '4f46d78c6d2443b2a68620f4c0419f996621960f4076c8b4034efb3d37f4362d',
        'records': 'd39b149517e39079fbf2344d4df92354737a7126c2e5b0232fba5fc376a589e3',
        'scenario.json': '9ca49e295a52e53fca662490c14a1c8502ddcceaf9f7d05d17d220cd11bead7b',
        'summary.json': 'c613e1e56f41a9c680b7401ecb60a02046bdac521dd70bb5358f6601c8eb47f6',
        'tickets.jsonl': '8fbab9b8f81835fad3fa0f77f6328273ef78b2a9392ea2760746375bc82685ba',
        'trace.csv': '186545ed2b9d583feaed24a0cb42395454e6d5bfd84dd7561d5063c8aff1b318',
        'triggers': '3765c3f7952e7324abf4c09ffe5e723994312fc9303870db49764d33d0110e07',
    },
    'dense-capacity-cut': {
        'closed': 'e934f23dd3541521d16aa4dbc819285faa09ca530378cc6c3ee57521369012a9',
        'records': 'e7d09ea37efb38e7250b7f08b9de3a403ccfec53c082ba845b13f035efcae512',
        'scenario.json': '975bc509e99e2f54bc24e27b670cf78c2818da683ab25d434827034ba737e7b8',
        'summary.json': 'a59a1ba934b2a2f3444803c64f0d9af87f5597a279fb46530ad4262ac28af82f',
        'tickets.jsonl': 'f1cfb81103587bb560609b17b7c5467b4a5c78cf31514ea6c625f9fb5483d5ba',
        'trace.csv': '89f563f59e8fd9f519f5c50bba5aa809b9b3c9f5270478c3eaa2564688783ab7',
        'triggers': 'ddf907c132735a6963cd67ef02950c0615bf07bb96c5b6975c02a14864e4c2b3',
    },
    'dense-fifth-ms-window': {
        'closed': '10ee136f25c3841ddd099f952f4a11f2e755d267d348fdd152ec089adae6f9fb',
        'records': '2788214f59d596d2cf2e62603587a1bb70d1259b17bef1c36871812aab367038',
        'scenario.json': '828d6bb20a58b808835e2c1dc4c66972608a79e4b5826c961819f19cf19ab598',
        'summary.json': '3421b92dc55bbe672f2e26da2d37086889b13e1c4c0fb7cdce7c855a1d811558',
        'tickets.jsonl': '62cfaaa657883f06e082072c893c0183e79969594fdc5ecd24600b2958074365',
        'trace.csv': '3ea580b0720c633ae1bd044a8387807e90f220e25da04315de96d3d2683e0684',
        'triggers': '30038e11582adc8d5f0e3391b8073dc0dfefe06098a1dc0d0edd9c64170bb12c',
    },
    # This digest encodes the known IPID float-span defect (see
    # edge_scenarios); it is expected to move when that is mended.
    'ipid-span-float-edge': {
        'closed': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'records': 'e574049f4f2ab903b26c51057e859b77a830c5d47435ce8b993e63ff2228621a',
        'scenario.json': 'ad6fe3509547ddfff7d13407343c3dc7a9cfa2298ea7b4ed73161cc84e7b8e09',
        'summary.json': '856d82006696468695f5931f1ca76cd52d7e59ea181bb14e8319291e20c4070a',
        'tickets.jsonl': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'trace.csv': '29126cbefcf786693106f2a021474f6fcafc613eab2744458085396fb77d1dee',
        'triggers': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
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
    'table1': 'cfda311f288a08ad9ed18aa9cb4c4c92fdd9e4d5ca60ed2e20a42352c42d7f5d',
    'table3': 'cfda311f288a08ad9ed18aa9cb4c4c92fdd9e4d5ca60ed2e20a42352c42d7f5d',
    'table4': '46437945a5513314ceafabc102fffe0f737ce4a67d69c98f1a471a3133acb0de',
    'ideal-profile-2': 'abe18dde61ab9bfef319a0ce518af85bd72248bd9a328735c021f47507220227',
    'ideal-profile-238': '1828dcb22766e96c933a0a09edda6847307a87946f80b7fb63922b432dc30c31',
    'ideal-profile-5963': '463ed1820e80b6f49e7be4260e824aa6452ad39d9028a2d1be6800570669aa81',
    'interior-growth-curve': '653644a624b45c2dbb5f5ff6514763e038f80cee783d6d469f81dbcaef904b63',
    'interior-linear': '36a6c4bb2924fe79b76b424f69a50be78ce059fab5a042a096bcfd083b4550d2',
    'ps0-concave': '1134a2425e8b4244da0d5bcac49e3ee290a4e4277d419d95b1eb6fe8d587fb4a',
    'pe0-convex': 'd7b41ffd466afd7a0cb656e4ccef9b1d0ccc034dc8300de656efce06beaac266',
    'det0-short-span': 'f619de1f3f34ee0a074b5f74385e520df06114e9006fc8ada91a958e31955685',
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
        # A known IPID-window defect, pinned as it stands; its digests are
        # expected to move when the window keeps integer steps.  A reused
        # IPID seen at 28.02, 78.02 and 128.02 ms spans 100.00000000000001
        # ms in floats, so the 3-in-100 ms rule never judges it a loop.
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
