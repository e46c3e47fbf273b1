(* First-pass output digests of each repetition at the default seed (1),
   as the benchmark prints them when they differ. Repetition r runs on
   input seed 1 + 100003 r. A change that moves one of these changed what
   the program computes. *)

let pins =
  [ ( "montecarlo-table1",
      [ [ "binary-tree/Luby's=01fdf2b1378811c65aae23c4a62aed12";
          "binary-tree/FairTree=51743cb914f63817b1a146c1d7430cfa";
          "5-ary-tree/Luby's=4f3297e875ddac24168d370a2d0a8524";
          "5-ary-tree/FairTree=cc037ebc7bd2b1a52c4b6b14658b48c5";
          "alternating-B10/Luby's=8db5fe0ca6ca97a6d88580af6b1492db";
          "alternating-B10/FairTree=98b01f0bef9c4ed9b787ba2b55c29e79";
          "alternating-B30/Luby's=b60fc6642651ef8f471e037176059e96";
          "alternating-B30/FairTree=1d58263fd1afafcc989508b444af5b05";
          "dartmouth-like/Luby's=d2a0510bc605baebd90fb157a4d26a9f";
          "dartmouth-like/FairTree=dac239db2c9c8254783e865f1dfebb3e";
          "nyc-like-small/Luby's=0178d75f3193c4ac3f28fb5c02088c30";
          "nyc-like-small/FairTree=ee7afdca8873076cd05ce28cb26ebd79" ];
        [ "binary-tree/Luby's=e2950cf33c48dab1a6b8ce9600b67b99";
          "binary-tree/FairTree=de76c1eb753e622b341255adef1e338b";
          "5-ary-tree/Luby's=6f0ecffd126380940c4ecb0b2daf9bd1";
          "5-ary-tree/FairTree=2a1e9da349f940164169674b4812cde7";
          "alternating-B10/Luby's=386de0105623fa46673c48ed47ac0351";
          "alternating-B10/FairTree=3bcd0cc3631cdc7333f133b5880c5261";
          "alternating-B30/Luby's=44400918fc3945488f55fdf89a88ab00";
          "alternating-B30/FairTree=cd33aafac2936dbd55f8598edc077648";
          "dartmouth-like/Luby's=f1d7dbd1e6211561c676dd8326dcb23f";
          "dartmouth-like/FairTree=5db582b0a75e2d4c7a1f75debae0dc58";
          "nyc-like-small/Luby's=f99b4fb69da712ceb342f91b51c058f0";
          "nyc-like-small/FairTree=eadb2a91d157f7299b2a04afdc41c405" ];
        [ "binary-tree/Luby's=7bbff7c05fbadb2f7c736fb79d8ce706";
          "binary-tree/FairTree=6de33889a4c5d8f799a246b616a000ec";
          "5-ary-tree/Luby's=768b7aec82c0fbd77b066bf08e562bab";
          "5-ary-tree/FairTree=32835e4966a5710025fd874fa5173fcf";
          "alternating-B10/Luby's=75b069b025089a61e2d02098a2e09368";
          "alternating-B10/FairTree=27748e28c0d888cf10b8380a40ca40ad";
          "alternating-B30/Luby's=8a32a68c5927c0b33c3691fc70f85bf6";
          "alternating-B30/FairTree=fca033b75d64fad287b3dd3b4d87bc78";
          "dartmouth-like/Luby's=ffff62e7cab702281e031b282034f2d3";
          "dartmouth-like/FairTree=bb9097cccfd121a99330b0532c1c63f8";
          "nyc-like-small/Luby's=85079cf4055bf08a6f221695bde48810";
          "nyc-like-small/FairTree=965f4123963036b271df9bf7acb6db93" ];
        [ "binary-tree/Luby's=dccc491208264d3b454d266d83810263";
          "binary-tree/FairTree=ca178015454ffd06922db2dffc7ef76c";
          "5-ary-tree/Luby's=fc4632454076ec8a394f8a439599b863";
          "5-ary-tree/FairTree=3061511a918b61be5c9c78003e8406c8";
          "alternating-B10/Luby's=ff1119bb852d4c843cfd910d1fcd1245";
          "alternating-B10/FairTree=48129522f920c543b122cb2a9e4813e5";
          "alternating-B30/Luby's=645d99a60edaa0d9086101658dfe6a69";
          "alternating-B30/FairTree=31b7ff0154efc01b92ffa227b916085e";
          "dartmouth-like/Luby's=f0ee8e0e7513808fa9cac8e0aff043df";
          "dartmouth-like/FairTree=16c8e66d4c8e2affd17734e65fcef82c";
          "nyc-like-small/Luby's=31917a095cf15cc2046ddd9738959831";
          "nyc-like-small/FairTree=effaa71a7bc6721af0df9c5d20b6aa2a" ] ] );
    ( "single-xl",
      [ [ "luby/1=ccc233326c82f4fe134a6ab56e36292a";
          "fairtree/1=a7b879cbc51e05ea2a2259213c475134" ];
        [ "luby/1=71bc68256576556bebae06f0f35476f2";
          "fairtree/1=7fe7c2421e9b24eb2592430f4a90910d" ];
        [ "luby/1=84ed43adb73f1fd1acc8e7d86e486ad2";
          "fairtree/1=e9cd99e2dcd646e0706efeda1ce39c3d" ];
        [ "luby/1=665712b9bd5dc8d4b21dab723cf7c56a";
          "fairtree/1=3b66c79a67e999105133c4a6cdf81d9b" ];
        [ "luby/1=054df9040b9e85fb8fb50eff89f959fa";
          "fairtree/1=7b2bdd27c0b5cf591b5377718799ac08" ];
        [ "luby/1=891b41e63cff27fcb2bb5e5d0f88738b";
          "fairtree/1=538cfc78bfabeab29fdaae6f783ecd82" ] ] );
    ( "serve-churn",
      [ [ "batches=1000 mis=2f50fbbcc5c9ea5b540213d302dbde3a" ];
        [ "batches=1000 mis=4686e779bc6d0b24fe82521d0c743e9e" ];
        [ "batches=1000 mis=a2b0816015fe28609547d89d440f9c6e" ] ] ) ]
