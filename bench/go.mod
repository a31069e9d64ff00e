module octostore/bench

go 1.21

require octostore v0.0.0

replace octostore => ../
